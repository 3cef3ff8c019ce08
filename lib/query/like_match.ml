(* Iterative matching with one backtrack point: on a mismatch, resume
   just after the most recent '%' with that '%' absorbing one more
   subject character. Backtracking to an earlier '%' is never needed —
   any split it could try, the later '%' covers too — so this is exact,
   O(|pattern| * |s|) at worst, and allocates nothing: predicates run
   it over every dictionary string each time they are compiled. *)
let matches ~pattern s =
  let np = String.length pattern and ns = String.length s in
  let pi = ref 0 and si = ref 0 in
  let star = ref (-1) and resume = ref 0 in
  let failed = ref false in
  while (not !failed) && !si < ns do
    if !pi < np && pattern.[!pi] = '%' then begin
      star := !pi;
      resume := !si;
      incr pi
    end
    else if !pi < np && (pattern.[!pi] = '_' || pattern.[!pi] = s.[!si]) then begin
      incr pi;
      incr si
    end
    else if !star >= 0 then begin
      incr resume;
      si := !resume;
      pi := !star + 1
    end
    else failed := true
  done;
  if !failed then false
  else begin
    while !pi < np && pattern.[!pi] = '%' do
      incr pi
    done;
    !pi = np
  end

let is_prefix_pattern pattern =
  let n = String.length pattern in
  n > 1
  && pattern.[n - 1] = '%'
  && not (String.exists (fun c -> c = '%' || c = '_') (String.sub pattern 0 (n - 1)))
