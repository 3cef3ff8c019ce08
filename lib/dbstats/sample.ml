type t = Whole of int | Drawn of int array

let take prng table ~size =
  let n = Storage.Table.row_count table in
  if size >= n then Whole n else Drawn (Util.Prng.sample_without_replacement prng size n)

let rows = function Whole n -> Array.init n (fun i -> i) | Drawn rows -> rows

let evaluate t table pred =
  ignore table;
  match t with
  | Whole n ->
      let m = ref 0 in
      for row = 0 to n - 1 do
        if pred row then incr m
      done;
      !m
  | Drawn rows -> Array.fold_left (fun acc row -> if pred row then acc + 1 else acc) 0 rows

let size = function Whole n -> n | Drawn rows -> Array.length rows

let selectivity t table pred =
  let n = size t in
  if n = 0 then 0.0 else float_of_int (evaluate t table pred) /. float_of_int n
