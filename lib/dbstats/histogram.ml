type t = { bounds : int array } (* length = buckets + 1 *)

let build ~buckets values =
  if Array.length values = 0 then None
  else begin
    let sorted = Array.copy values in
    Util.Radix.sort sorted;
    let n = Array.length sorted in
    let buckets = max 1 (min buckets n) in
    let bounds =
      Array.init (buckets + 1) (fun i ->
          let pos = i * (n - 1) / buckets in
          sorted.(pos))
    in
    Some { bounds }
  end

(* [build] over [counts.(k)] copies of [lo + k], without expanding
   them: walk the keys in order, keeping the number of values before
   key [k], and give bound [i] the key whose run holds position
   [i * (n - 1) / buckets] of the sorted multiset. *)
let of_counts ~buckets ~lo counts =
  let n = Array.fold_left ( + ) 0 counts in
  if n = 0 then None
  else begin
    let buckets = max 1 (min buckets n) in
    let bounds = Array.make (buckets + 1) 0 in
    let k = ref 0 and before = ref 0 in
    for i = 0 to buckets do
      let pos = i * (n - 1) / buckets in
      while !before + counts.(!k) <= pos do
        before := !before + counts.(!k);
        incr k
      done;
      bounds.(i) <- lo + !k
    done;
    Some { bounds }
  end

let bucket_count t = Array.length t.bounds - 1

let bounds t = Array.copy t.bounds

(* Fraction of mass strictly below x, interpolating inside the bucket. *)
let cdf t x =
  let b = t.bounds in
  let k = bucket_count t in
  if x <= b.(0) then 0.0
  else if x > b.(k) then 1.0
  else begin
    (* Find bucket i with b.(i) < x <= b.(i+1). *)
    let rec find i = if i >= k - 1 || x <= b.(i + 1) then i else find (i + 1) in
    let i = find 0 in
    let lo = b.(i) and hi = b.(i + 1) in
    let within =
      if hi = lo then 1.0
      else (float_of_int x -. float_of_int lo) /. (float_of_int hi -. float_of_int lo)
    in
    (float_of_int i +. Float.min 1.0 within) /. float_of_int k
  end

let range_selectivity t ?lo ?hi () =
  let below_hi = match hi with None -> 1.0 | Some h -> cdf t (h + 1) in
  let below_lo = match lo with None -> 0.0 | Some l -> cdf t l in
  Float.min 1.0 (Float.max 0.0 (below_hi -. below_lo))

let cmp_selectivity t op c =
  match (op : Query.Predicate.cmp) with
  | Eq -> range_selectivity t ~lo:c ~hi:c ()
  | Ne -> 1.0 -. range_selectivity t ~lo:c ~hi:c ()
  | Lt -> range_selectivity t ~hi:(c - 1) ()
  | Le -> range_selectivity t ~hi:c ()
  | Gt -> range_selectivity t ~lo:(c + 1) ()
  | Ge -> range_selectivity t ~lo:c ()
