type t = {
  row_count : int;
  null_fraction : float;
  distinct_sampled : float;
  distinct_exact : float;
  mcv : (int * float) array;
  histogram_cell : Histogram.t option Util.Once.t;
  ranks_cell : int array option Util.Once.t;
}

(* Haas & Stokes Duj1 estimator, the one PostgreSQL uses:
   d = n*d_s / (n - f1 + f1*n/N)
   where d_s = distinct in sample, f1 = values seen exactly once, n =
   sample size, N = table rows. *)
let duj1 ~sample_size ~table_rows ~sample_distinct ~singletons =
  if sample_size = 0 then 0.0
  else if sample_size >= table_rows then float_of_int sample_distinct
  else begin
    let n = float_of_int sample_size in
    let big_n = float_of_int table_rows in
    let d = float_of_int sample_distinct in
    let f1 = float_of_int singletons in
    let denom = n -. f1 +. (f1 *. n /. big_n) in
    if denom <= 0.0 then d else Float.min big_n (n *. d /. denom)
  end

(* The per-code sample frequencies, keyed by int with the hash the
   polymorphic table uses, so buckets — and with them the fold order
   that orders equally frequent MCVs — are the same. *)
module Int_table = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash (x : int) = Hashtbl.hash x
end)

(* Dense kernel: one pass over the sample fills [counts], indexed by
   [code - lo], and records the distinct codes in first-seen order, the
   NULLs and the largest count. When some code repeats, the distinct
   codes go into [freqs] in first-seen order with their final counts:
   that is the order in which the hashed kernel's per-row updates first
   insert them, so buckets and fold order are the same. Returns the
   sample's NULL, distinct and singleton counts. *)
let dense_counts data sample_rows ~lo ~counts ~freqs =
  let n = Array.length sample_rows in
  let order = Array.make (min n (Array.length counts)) 0 in
  let nulls = ref 0 and distinct = ref 0 and top = ref 0 in
  for i = 0 to n - 1 do
    let v = data sample_rows.(i) in
    if v = Storage.Value.null_code then incr nulls
    else begin
      let c = counts.(v - lo) + 1 in
      counts.(v - lo) <- c;
      if c = 1 then begin
        order.(!distinct) <- v;
        incr distinct
      end;
      if c > !top then top := c
    end
  done;
  let singletons = ref 0 in
  for j = 0 to !distinct - 1 do
    let c = counts.(order.(j) - lo) in
    if c = 1 then incr singletons;
    if !top >= 2 then Int_table.add freqs order.(j) c
  done;
  (!nulls, !distinct, !singletons)

(* Hashed kernel, for code ranges too wide to address directly: one
   table update per sampled row. *)
let hashed_counts data sample_rows ~freqs =
  let nulls = ref 0 in
  Array.iter
    (fun row ->
      let v = data row in
      if v = Storage.Value.null_code then incr nulls
      else
        match Int_table.find_opt freqs v with
        | Some c -> Int_table.replace freqs v (c + 1)
        | None -> Int_table.add freqs v 1)
    sample_rows;
  ( !nulls,
    Int_table.length freqs,
    Int_table.fold (fun _ c acc -> if c = 1 then acc + 1 else acc) freqs 0 )

(* The [k] most frequent codes seen at least twice, as (code, count,
   visit) triples, most frequent first. Among equal counts the code the
   table's iteration visits later comes first: the order a stable sort
   of the folded list [(code, count) :: acc] gives. A min-heap of [k]
   entries keeps the best so far, its root the one to drop next. *)
let top_frequencies freqs k =
  let heap = Array.make (min k (Int_table.length freqs)) (0, 0, 0) in
  let size = ref 0 in
  (* Whether [a] ranks below [b]. *)
  let below (_, ca, va) (_, cb, vb) = ca < cb || (ca = cb && va < vb) in
  let swap i j =
    let x = heap.(i) in
    heap.(i) <- heap.(j);
    heap.(j) <- x
  in
  let rec sift_down i n =
    let l = (2 * i) + 1 in
    if l < n then begin
      let m = if l + 1 < n && below heap.(l + 1) heap.(l) then l + 1 else l in
      if below heap.(m) heap.(i) then begin
        swap i m;
        sift_down m n
      end
    end
  in
  let rec sift_up i =
    let p = (i - 1) / 2 in
    if i > 0 && below heap.(i) heap.(p) then begin
      swap i p;
      sift_up p
    end
  in
  let visit = ref 0 in
  Int_table.iter
    (fun code c ->
      if c >= 2 then begin
        if !size < Array.length heap then begin
          heap.(!size) <- (code, c, !visit);
          incr size;
          sift_up (!size - 1)
        end
        (* A later visit outranks every earlier one of equal count. *)
        else if !size > 0 && not (below (code, c, !visit) heap.(0)) then begin
          heap.(0) <- (code, c, !visit);
          sift_down 0 !size
        end
      end;
      incr visit)
    freqs;
  (* Heapsort: move the lowest-ranked to the back, best first remains. *)
  for n = !size - 1 downto 1 do
    swap 0 n;
    sift_down 0 n
  done;
  Array.sub heap 0 !size

(* The histogram over the sample's non-NULL values outside [mcv], each
   mapped through [value]: [size] such values fill an array, which
   [Histogram.build] sorts. *)
let sorted_histogram column sample_rows ~size ~mcv ~value ~buckets =
  let data = Storage.Column.reader column in
  let mcv_codes = Int_table.create 32 in
  Array.iter (fun (code, _) -> Int_table.replace mcv_codes code ()) mcv;
  let values = Array.make size 0 in
  let filled = ref 0 in
  Array.iter
    (fun row ->
      let v = data row in
      if v <> Storage.Value.null_code && not (Int_table.mem mcv_codes v) then begin
        values.(!filled) <- value v;
        incr filled
      end)
    sample_rows;
  Histogram.build ~buckets values

let build table ~col ~sample_rows ?(buckets = 100) ?(mcv_entries = 100) () =
  let column = Storage.Table.column table col in
  let data = Storage.Column.reader column in
  let row_count = Storage.Column.length column in

  (* Sample pass: frequencies per code, through the dense kernel when
     the column's code range allows it. *)
  let sample_size = Array.length sample_rows in
  let dense =
    match Storage.Column.min_max column with
    | None -> None
    | Some (lo, hi) ->
        Option.map
          (fun span -> (lo, Array.make span 0))
          (Storage.Column.dense_span ~n:sample_size lo hi)
  in
  let freqs = Int_table.create 512 in
  let nulls, sample_distinct, singletons =
    match dense with
    | Some (lo, counts) -> dense_counts data sample_rows ~lo ~counts ~freqs
    | None -> hashed_counts data sample_rows ~freqs
  in
  let non_null = sample_size - nulls in
  let null_fraction =
    if sample_size = 0 then 0.0 else float_of_int nulls /. float_of_int sample_size
  in
  let distinct_sampled =
    Float.max 1.0
      (duj1 ~sample_size:non_null ~table_rows:row_count ~sample_distinct ~singletons)
  in
  let distinct_exact = Float.max 1.0 (float_of_int (Storage.Column.distinct_count column)) in

  (* MCVs: codes seen at least twice in the sample, most frequent first. *)
  let top = top_frequencies freqs mcv_entries in
  let mcv =
    Array.map
      (fun (code, c, _) -> (code, float_of_int c /. float_of_int (max 1 sample_size)))
      top
  in

  (* Histogram over the non-MCV part of the sample, in rank space: the
     non-NULL rows less the MCVs' sample counts. Only order predicates
     read it, so a string column's, and its rank translation, wait for
     the first one; the deferred build rescans the sample and keeps
     nothing of this pass but the MCVs. *)
  let size = Array.fold_left (fun acc (_, c, _) -> acc - c) non_null top in
  let histogram_cell, ranks_cell =
    match (Storage.Column.dict column, dense) with
    | Some dict, _ ->
        ( Util.Once.make (fun () ->
              let ranks = Storage.Dict.ranks dict in
              sorted_histogram column sample_rows ~size ~mcv ~value:(fun v -> ranks.(v))
                ~buckets),
          Util.Once.make (fun () -> Some (Storage.Dict.ranks dict)) )
    | None, Some (lo, counts) ->
        (* Zero the MCVs' counts: what is left counts the histogram's values. *)
        Array.iter (fun (code, _) -> counts.(code - lo) <- 0) mcv;
        (Util.Once.of_val (Histogram.of_counts ~buckets ~lo counts), Util.Once.of_val None)
    | None, None ->
        ( Util.Once.of_val
            (sorted_histogram column sample_rows ~size ~mcv ~value:Fun.id ~buckets),
          Util.Once.of_val None )
  in
  {
    row_count;
    null_fraction;
    distinct_sampled;
    distinct_exact;
    mcv;
    histogram_cell;
    ranks_cell;
  }

let mcv_fraction_total t = Array.fold_left (fun acc (_, f) -> acc +. f) 0.0 t.mcv

let mcv_find t code =
  let found = ref None in
  Array.iter (fun (c, f) -> if c = code && !found = None then found := Some f) t.mcv;
  !found

let histogram t = Util.Once.force t.histogram_cell

let ranks t = Util.Once.force t.ranks_cell

let rank t code = match ranks t with None -> code | Some ranks -> ranks.(code)

let rank_of_string t column s =
  match (ranks t, Storage.Column.dict column) with
  | Some _, Some dict -> Storage.Dict.count_below dict s
  | _ -> invalid_arg "Column_stats.rank_of_string: not a string column"
