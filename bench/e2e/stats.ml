(* Order statistics shared by the runs and by [compare]. *)

(* The tail percentile a sample of [n] supports: the highest of the
   candidates that still leaves at least ten samples beyond its
   nearest rank. 113 samples give p90, 226 give p95, 1000 give p99. *)
let tail_quantile n =
  let candidates = [ 0.999; 0.99; 0.95; 0.9; 0.75; 0.5 ] in
  let beyond q = n - int_of_float (Float.ceil (q *. float_of_int n)) in
  match List.find_opt (fun q -> beyond q >= 10) candidates with
  | Some q -> q
  | None -> 0.5

let percentile_label q =
  let s = Printf.sprintf "%g" (q *. 100.0) in
  "p" ^ String.concat "" (String.split_on_char '.' s)

(* Median and quartiles exactly as Python's statistics.median and
   statistics.quantiles(values, n=4) (the default "exclusive" method)
   compute them — the numbers a regression gate over these runs uses. *)
let median values =
  let a = Array.of_list values in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let quartiles values =
  let a = Array.of_list values in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then (Float.nan, Float.nan)
  else if n = 1 then (a.(0), a.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 3)

(* Interquartile distance as a share of the median. *)
let spread values =
  let q1, q3 = quartiles values in
  let m = median values in
  if m = 0.0 then if q3 -. q1 = 0.0 then 0.0 else Float.infinity
  else (q3 -. q1) /. Float.abs m
