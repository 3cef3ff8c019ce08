(* The lexicographic order of the strings: [sorted.(k)] is the code of
   rank [k], [ranks.(code)] the rank of [code]. *)
type order = { sorted : int array; ranks : int array }

type t = {
  mutable strings : string array;
  mutable count : int;
  index : (string, int) Hashtbl.t;
  mutable order : order option;  (** cached until the next new string *)
}

let create () =
  { strings = Array.make 16 ""; count = 0; index = Hashtbl.create 64; order = None }

let grow t =
  let capacity = Array.length t.strings in
  if t.count = capacity then begin
    let bigger = Array.make (2 * capacity) "" in
    Array.blit t.strings 0 bigger 0 capacity;
    t.strings <- bigger
  end

let intern t s =
  match Hashtbl.find_opt t.index s with
  | Some code -> code
  | None ->
      grow t;
      let code = t.count in
      t.strings.(code) <- s;
      t.count <- t.count + 1;
      Hashtbl.add t.index s code;
      t.order <- None;
      code

let find_opt t s = Hashtbl.find_opt t.index s

let get t code =
  if code < 0 || code >= t.count then invalid_arg "Dict.get: unknown code";
  t.strings.(code)

let size t = t.count

let iter f t =
  for code = 0 to t.count - 1 do
    f code t.strings.(code)
  done

let matching_codes t p =
  let bitmap = Array.make t.count false in
  iter (fun code s -> if p s then bitmap.(code) <- true) t;
  bitmap

(* Two domains that race here both sort and store equal arrays. *)
let order t =
  match t.order with
  | Some o -> o
  | None ->
      let sorted = Array.init t.count (fun c -> c) in
      Array.stable_sort (fun a b -> String.compare t.strings.(a) t.strings.(b)) sorted;
      let ranks = Array.make t.count 0 in
      Array.iteri (fun r c -> ranks.(c) <- r) sorted;
      let o = { sorted; ranks } in
      t.order <- Some o;
      o

let ranks t = (order t).ranks

let count_below t s =
  let sorted = (order t).sorted in
  (* The first rank whose string is >= s. *)
  let lo = ref 0 and hi = ref (Array.length sorted) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if String.compare t.strings.(sorted.(mid)) s < 0 then lo := mid + 1 else hi := mid
  done;
  !lo
