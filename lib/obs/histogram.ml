(* Log2-bucket histograms and the shared exact-quantile functions. The
   bucketed type is a plain single-owner value: the metrics registry
   wraps it in a mutex for concurrent observation, QCheck exercises the
   merge laws on it directly. *)

let nbuckets = 64

type t = { counts : int array; mutable n : int; mutable total : int }

let create () = { counts = Array.make nbuckets 0; n = 0; total = 0 }

(* Bucket 0 holds value 0; bucket k >= 1 holds [2^(k-1), 2^k - 1] —
   i.e. k is the value's bit length. *)
let bucket_of v =
  if v <= 0 then 0
  else begin
    let k = ref 0 and v = ref v in
    while !v > 0 do
      incr k;
      v := !v lsr 1
    done;
    !k
  end

let bucket_lower k = if k <= 0 then 0 else 1 lsl (k - 1)

let observe t v =
  let v = max 0 v in
  let b = bucket_of v in
  t.counts.(b) <- t.counts.(b) + 1;
  t.n <- t.n + 1;
  t.total <- t.total + v

let count t = t.n
let sum t = t.total
let buckets t = Array.copy t.counts

let merge a b =
  {
    counts = Array.init nbuckets (fun i -> a.counts.(i) + b.counts.(i));
    n = a.n + b.n;
    total = a.total + b.total;
  }

let approx_quantile t q =
  if t.n = 0 then 0
  else begin
    let rank =
      max 1 (min t.n (int_of_float (ceil (q *. float_of_int t.n))))
    in
    let seen = ref 0 and k = ref 0 in
    while !seen < rank && !k < nbuckets do
      seen := !seen + t.counts.(!k);
      if !seen < rank then incr k
    done;
    (* Upper bound of the resolved bucket: 0 for bucket 0, else
       2^k - 1. *)
    if !k = 0 then 0 else (1 lsl !k) - 1
  end

(* ------------------------------------------------------------------ *)
(* Exact quantiles over raw samples — the one copy of this math.       *)

(* Nearest-rank percentile over an unsorted sample; [q] in [0, 1]. *)
let percentile sample q =
  let n = Array.length sample in
  if n = 0 then 0.0
  else begin
    let sorted = Array.copy sample in
    Array.sort compare sorted;
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))
  end
