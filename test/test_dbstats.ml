(* Tests for the statistics layer: samples, histograms, column stats,
   ANALYZE. *)

let checkf = Alcotest.check (Alcotest.float 1e-9)

(* --- Sample ---------------------------------------------------------------- *)

let test_sample_sizes () =
  let db = Lazy.force Support.imdb in
  let t = Storage.Database.find_table db "title" in
  let prng = Util.Prng.create 1 in
  let s = Dbstats.Sample.take prng t ~size:50 in
  Alcotest.(check int) "requested size" 50 (Dbstats.Sample.size s);
  let all = Dbstats.Sample.take prng t ~size:10_000_000 in
  Alcotest.(check int) "whole table" (Storage.Table.row_count t)
    (Dbstats.Sample.size all)

let test_sample_full_selectivity_exact () =
  let db = Lazy.force Support.imdb in
  let t = Storage.Database.find_table db "title" in
  let prng = Util.Prng.create 1 in
  let full = Dbstats.Sample.take prng t ~size:max_int in
  let col = Storage.Table.column_index t "production_year" in
  let pred =
    Query.Predicate.compile t [ Query.Predicate.Cmp { col; op = Query.Predicate.Gt; code = 2000 } ]
  in
  let truth = ref 0 in
  for row = 0 to Storage.Table.row_count t - 1 do
    if pred row then incr truth
  done;
  checkf "exact on full sample"
    (float_of_int !truth /. float_of_int (Storage.Table.row_count t))
    (Dbstats.Sample.selectivity full t pred)

(* --- Histogram ---------------------------------------------------------------- *)

let test_histogram_empty () =
  Alcotest.(check bool) "none" true (Dbstats.Histogram.build ~buckets:10 [||] = None)

let test_histogram_bounds_sorted () =
  let values = Array.init 1000 (fun i -> (i * 37) mod 500) in
  match Dbstats.Histogram.build ~buckets:20 values with
  | None -> Alcotest.fail "expected a histogram"
  | Some h ->
      let b = Dbstats.Histogram.bounds h in
      for i = 0 to Array.length b - 2 do
        Alcotest.(check bool) "non-decreasing" true (b.(i) <= b.(i + 1))
      done;
      checkf "full range" 1.0 (Dbstats.Histogram.range_selectivity h ())

let histogram_vs_brute_force =
  Support.qcheck_case ~name:"histogram range selectivity ~ exact fraction"
    QCheck.(pair small_int (int_range 0 100))
    (fun (seed, cutoff) ->
      let prng = Util.Prng.create seed in
      let values = Array.init 2000 (fun _ -> Util.Prng.int prng 100) in
      match Dbstats.Histogram.build ~buckets:50 values with
      | None -> false
      | Some h ->
          let est = Dbstats.Histogram.cmp_selectivity h Query.Predicate.Le cutoff in
          let exact =
            float_of_int (Array.fold_left (fun a v -> if v <= cutoff then a + 1 else a) 0 values)
            /. 2000.0
          in
          Float.abs (est -. exact) < 0.08)

let test_histogram_cmp_consistency () =
  let values = Array.init 500 (fun i -> i) in
  let h = Option.get (Dbstats.Histogram.build ~buckets:25 values) in
  let le = Dbstats.Histogram.cmp_selectivity h Query.Predicate.Le 250 in
  let gt = Dbstats.Histogram.cmp_selectivity h Query.Predicate.Gt 250 in
  Alcotest.(check (Alcotest.float 0.02)) "le + gt = 1" 1.0 (le +. gt)

(* [of_counts] picks the bounds [build] picks over the expanded values. *)
let of_counts_matches_build ~buckets ~lo counts =
  let expanded =
    Array.concat (Array.to_list (Array.mapi (fun k c -> Array.make c (lo + k)) counts))
  in
  let bounds h = Option.map Dbstats.Histogram.bounds h in
  bounds (Dbstats.Histogram.of_counts ~buckets ~lo counts)
  = bounds (Dbstats.Histogram.build ~buckets expanded)

(* Random count arrays with many zero keys, negative and positive
   offsets, and bucket counts above and below the number of values. *)
let histogram_of_counts =
  Support.qcheck_case ~count:300 ~name:"histogram of counts = build over expanded values"
    QCheck.(triple small_int (int_range 0 60) (int_range 1 120))
    (fun (seed, keys, buckets) ->
      let prng = Util.Prng.create seed in
      let counts = Array.init keys (fun _ -> max 0 (Util.Prng.int prng 7 - 3)) in
      let lo = Util.Prng.int prng 2001 - 1000 in
      of_counts_matches_build ~buckets ~lo counts)

let test_histogram_of_counts_edges () =
  List.iter
    (fun (what, counts, buckets) ->
      Alcotest.(check bool) what true (of_counts_matches_build ~buckets ~lo:5 counts))
    [
      ("no keys", [||], 10);
      ("total of 0", [| 0; 0; 0 |], 10);
      ("one value, many buckets", [| 0; 1; 0 |], 100);
      ("more buckets than values", [| 2; 0; 0; 1; 0; 3 |], 50);
      ("zero-count keys at both ends", [| 0; 0; 4; 0; 5; 0; 0 |], 3);
    ]

(* --- Column_stats ----------------------------------------------------------------- *)

let stats_of table col =
  let t = Storage.Database.find_table (Lazy.force Support.imdb_mid) table in
  let n = Storage.Table.row_count t in
  let sample_rows = Array.init n (fun i -> i) in
  Dbstats.Column_stats.build t
    ~col:(Storage.Table.column_index t col)
    ~sample_rows ()

let test_column_stats_null_fraction () =
  let s = stats_of "title" "episode_of_id" in
  (* Non-episodes have NULL episode_of_id: roughly 85%. *)
  Alcotest.(check bool)
    (Printf.sprintf "null fraction %.2f in range" s.Dbstats.Column_stats.null_fraction)
    true
    (s.Dbstats.Column_stats.null_fraction > 0.6
    && s.Dbstats.Column_stats.null_fraction < 0.95)

let test_column_stats_mcv () =
  let s = stats_of "company_name" "country_code" in
  (* '[us]' is the dominant value; the MCV list must carry real mass. *)
  Alcotest.(check bool) "has mcvs" true (Array.length s.Dbstats.Column_stats.mcv > 0);
  Alcotest.(check bool) "mass" true (Dbstats.Column_stats.mcv_fraction_total s > 0.2);
  let top_code, top_f = s.Dbstats.Column_stats.mcv.(0) in
  Alcotest.(check bool) "descending" true
    (Array.for_all (fun (_, f) -> f <= top_f) s.Dbstats.Column_stats.mcv);
  Alcotest.(check (option (Alcotest.float 1.0))) "find top" (Some top_f)
    (Dbstats.Column_stats.mcv_find s top_code)

let test_column_stats_distinct_exact () =
  let s = stats_of "kind_type" "kind" in
  checkf "7 kinds" 7.0 s.Dbstats.Column_stats.distinct_exact;
  (* Full-table sample: the sampled estimate equals the exact count. *)
  checkf "sampled = exact on full scan" 7.0 s.Dbstats.Column_stats.distinct_sampled

let test_column_stats_ranks () =
  let s = stats_of "company_name" "country_code" in
  match Dbstats.Column_stats.ranks s with
  | None -> Alcotest.fail "string column must have ranks"
  | Some ranks ->
      let sorted = Array.copy ranks in
      Array.sort compare sorted;
      Array.iteri (fun i v -> Alcotest.(check int) "permutation" i v) sorted

let test_rank_of_string_boundary () =
  let t = Storage.Database.find_table (Lazy.force Support.imdb_mid) "movie_info_idx" in
  let col = Storage.Table.column_index t "info" in
  let s = stats_of "movie_info_idx" "info" in
  let column = Storage.Table.column t col in
  let r_low = Dbstats.Column_stats.rank_of_string s column "0.0" in
  let r_high = Dbstats.Column_stats.rank_of_string s column "zzzz" in
  Alcotest.(check bool) "low below high" true (r_low < r_high)

(* Every string in the dictionary, each with a byte appended, each with
   its last byte dropped, and the extremes: [rank_of_string] must count
   exactly the entries below each, as a linear scan does. *)
let test_rank_of_string_linear () =
  let db = Lazy.force Support.imdb_mid in
  List.iter
    (fun (table, col) ->
      let t = Storage.Database.find_table db table in
      let column = Storage.Table.column t (Storage.Table.column_index t col) in
      let s = stats_of table col in
      let dict = Option.get (Storage.Column.dict column) in
      let linear probe =
        let smaller = ref 0 in
        Storage.Dict.iter (fun _ e -> if String.compare e probe < 0 then incr smaller) dict;
        !smaller
      in
      let probes = ref [ ""; "\255\255"; "0.0"; "zzzz" ] in
      Storage.Dict.iter
        (fun _ e ->
          probes := e :: (e ^ "\000") :: (e ^ "~") :: !probes;
          if e <> "" then probes := String.sub e 0 (String.length e - 1) :: !probes)
        dict;
      List.iter
        (fun probe ->
          Alcotest.(check int)
            (Printf.sprintf "%s.%s rank of %S" table col probe)
            (linear probe)
            (Dbstats.Column_stats.rank_of_string s column probe))
        !probes)
    [ ("movie_info_idx", "info"); ("kind_type", "kind"); ("company_name", "country_code") ]

(* [Column_stats.build] as it was: a polymorphic frequency table, the
   histogram gathered through a list and sorted with polymorphic
   [compare], and the rank translation sorted afresh for each build. *)
let reference_build table ~col ~sample_rows ~buckets ~mcv_entries =
  let column = Storage.Table.column table col in
  let data = Storage.Column.reader column in
  let row_count = Storage.Column.length column in
  let null_code = Storage.Value.null_code in
  let rank_of_code =
    match Storage.Column.dict column with
    | None -> None
    | Some dict ->
        let n = Storage.Dict.size dict in
        let codes = Array.init n (fun c -> c) in
        Array.sort
          (fun a b -> String.compare (Storage.Dict.get dict a) (Storage.Dict.get dict b))
          codes;
        let ranks = Array.make n 0 in
        Array.iteri (fun r c -> ranks.(c) <- r) codes;
        Some ranks
  in
  let to_rank code = match rank_of_code with None -> code | Some ranks -> ranks.(code) in
  let freqs = Hashtbl.create 512 in
  let nulls = ref 0 and non_null = ref 0 in
  Array.iter
    (fun row ->
      let v = data row in
      if v = null_code then incr nulls
      else begin
        incr non_null;
        match Hashtbl.find_opt freqs v with
        | Some c -> Hashtbl.replace freqs v (c + 1)
        | None -> Hashtbl.add freqs v 1
      end)
    sample_rows;
  let sample_size = Array.length sample_rows in
  let null_fraction =
    if sample_size = 0 then 0.0 else float_of_int !nulls /. float_of_int sample_size
  in
  let sample_distinct = Hashtbl.length freqs in
  let singletons = Hashtbl.fold (fun _ c acc -> if c = 1 then acc + 1 else acc) freqs 0 in
  let distinct_sampled =
    let n = !non_null in
    Float.max 1.0
      (if n = 0 then 0.0
       else if n >= row_count then float_of_int sample_distinct
       else begin
         let n = float_of_int n and big_n = float_of_int row_count in
         let d = float_of_int sample_distinct and f1 = float_of_int singletons in
         let denom = n -. f1 +. (f1 *. n /. big_n) in
         if denom <= 0.0 then d else Float.min big_n (n *. d /. denom)
       end)
  in
  let distinct_exact = Float.max 1.0 (float_of_int (Storage.Column.distinct_count column)) in
  let pairs = Hashtbl.fold (fun code c acc -> (code, c) :: acc) freqs [] in
  let pairs = List.filter (fun (_, c) -> c >= 2) pairs in
  let pairs = List.sort (fun (_, a) (_, b) -> compare b a) pairs in
  let mcv =
    pairs
    |> List.filteri (fun i _ -> i < mcv_entries)
    |> List.map (fun (code, c) -> (code, float_of_int c /. float_of_int (max 1 sample_size)))
    |> Array.of_list
  in
  let mcv_codes = Hashtbl.create 32 in
  Array.iter (fun (code, _) -> Hashtbl.replace mcv_codes code ()) mcv;
  let hist_values =
    Array.of_list
      (Array.fold_left
         (fun acc row ->
           let v = data row in
           if v = null_code || Hashtbl.mem mcv_codes v then acc else to_rank v :: acc)
         [] sample_rows)
  in
  let bounds =
    if Array.length hist_values = 0 then None
    else begin
      let sorted = Array.copy hist_values in
      Array.sort compare sorted;
      let n = Array.length sorted in
      let buckets = max 1 (min buckets n) in
      Some (Array.init (buckets + 1) (fun i -> sorted.(i * (n - 1) / buckets)))
    end
  in
  (row_count, null_fraction, distinct_sampled, distinct_exact, mcv, bounds, rank_of_code)

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* [cs] equals the reference build on the same sample, field for field. *)
let check_reference what table ~col ~sample_rows ~buckets ~mcv_entries
    (cs : Dbstats.Column_stats.t) =
  let rows, nulls, sampled, exact, mcv, bounds, ranks =
    reference_build table ~col ~sample_rows ~buckets ~mcv_entries
  in
  let ok =
    rows = cs.row_count
    && same_float nulls cs.null_fraction
    && same_float sampled cs.distinct_sampled
    && same_float exact cs.distinct_exact
    && Array.length mcv = Array.length cs.mcv
    && Array.for_all2 (fun (c1, f1) (c2, f2) -> c1 = c2 && same_float f1 f2) mcv cs.mcv
    && bounds = Option.map Dbstats.Histogram.bounds (Dbstats.Column_stats.histogram cs)
    && ranks = Dbstats.Column_stats.ranks cs
  in
  if not ok then Alcotest.failf "%s differs from the reference build" what

(* Synthetic columns on either side of the dense kernel's range bound
   ([max 65536 (4 * sample)]), for a whole-table sample of 20,000 rows
   and a partial one of 2,000: a range wider than 2^40 with negatives,
   NULLs and repeated values (the hashed kernel), and ranges of exactly
   the bound and one past it. *)
let synthetic_kernel_cases () =
  let rows = 20_000 in
  let prng = Util.Prng.create 5 in
  let repeated k = Array.init rows (fun _ -> Util.Prng.int prng k) in
  let wide =
    let pool = [| -(1 lsl 41); -977; 0; 12; 1 lsl 40; (1 lsl 42) + 3; max_int; min_int + 1 |] in
    Array.map (fun k -> if k mod 11 = 0 then None else Some pool.(k mod Array.length pool))
      (repeated 97)
  in
  (* [span] codes from [lo]: both ends present, the rest repeated draws. *)
  let spanning ~lo span =
    Array.mapi
      (fun i k ->
        if i = 0 then Some lo
        else if i = 1 then Some (lo + span - 1)
        else if k mod 13 = 0 then None
        else Some (lo + (k * 7919 mod span)))
      (repeated 400)
  in
  List.iter
    (fun sample_size ->
      let sample_rows =
        if sample_size >= rows then Array.init rows Fun.id
        else Util.Prng.sample_without_replacement prng sample_size rows
      in
      let n = Array.length sample_rows in
      let bound = max 65536 (4 * n) in
      let table =
        Storage.Table.create ~name:"synthetic"
          [|
            Storage.Column.of_ints ~name:"wide" wide;
            Storage.Column.of_ints ~name:"at_bound" (spanning ~lo:(-5) bound);
            Storage.Column.of_ints ~name:"past_bound" (spanning ~lo:(-5) (bound + 1));
          |]
      in
      let expect_dense = [| false; true; false |] in
      Array.iteri
        (fun col column ->
          let lo, hi = Option.get (Storage.Column.min_max column) in
          Alcotest.(check bool)
            (Printf.sprintf "sample %d, column %d: dense kernel" n col)
            expect_dense.(col)
            (Storage.Column.dense_span ~n lo hi <> None))
        (Storage.Table.columns table);
      List.iter
        (fun (buckets, mcv_entries) ->
          for col = 0 to Storage.Table.column_count table - 1 do
            let cs =
              Dbstats.Column_stats.build table ~col ~sample_rows ~buckets ~mcv_entries ()
            in
            if col = 0 && Array.length cs.mcv = 0 then
              Alcotest.fail "the wide column should have MCVs";
            check_reference
              (Printf.sprintf "sample %d, %d buckets, column %d" n buckets col)
              table ~col ~sample_rows ~buckets ~mcv_entries cs
          done)
        [ (100, 100); (10, 5) ])
    [ rows; 2_000 ]

(* Every statistic of every column of every table, for the default and
   the coarse ANALYZE, at two scales, and of the synthetic columns that
   run each ANALYZE kernel: equal to the reference build on the same
   sample, field for field. *)
let test_column_stats_identity () =
  List.iter
    (fun scale ->
      let db = Support.fresh_imdb ~scale () in
      List.iter
        (fun (label, analyze, buckets, mcv_entries) ->
          List.iter
            (fun name ->
              let stats = Dbstats.Analyze.table analyze name in
              let sample_rows = Dbstats.Sample.rows stats.Dbstats.Analyze.sample in
              if Array.exists Util.Once.is_val stats.Dbstats.Analyze.columns then
                Alcotest.failf "scale %g, %s, %s: a column was analyzed before it was read"
                  scale label name;
              Array.iteri
                (fun col cs ->
                  let what =
                    Printf.sprintf "scale %g, %s, %s column %d" scale label name col
                  in
                  (* Only a string column's order statistics wait for a reader. *)
                  let column = Storage.Table.column stats.Dbstats.Analyze.table col in
                  let eager = Storage.Column.dict column = None in
                  Alcotest.(check (pair bool bool))
                    (what ^ ": histogram and ranks built with the other statistics")
                    (eager, eager)
                    ( Util.Once.is_val cs.Dbstats.Column_stats.histogram_cell,
                      Util.Once.is_val cs.Dbstats.Column_stats.ranks_cell );
                  check_reference what stats.Dbstats.Analyze.table ~col ~sample_rows ~buckets
                    ~mcv_entries cs)
                (Array.map Util.Once.force stats.Dbstats.Analyze.columns))
            (Storage.Database.table_names db))
        [
          ("default", Dbstats.Analyze.create db, 100, 100);
          ("coarse", Cardest.Systems.coarse_analyze db, 10, 5);
        ])
    [ 0.001; 0.005 ];
  synthetic_kernel_cases ()

(* Two domains read the same string column of an analyzed table at
   once, building its statistics, then its deferred histogram and
   ranks: neither raises, and both get what a serial read on an
   instance with the same seed gets. *)
let test_deferred_statistics_two_domains () =
  let db = Lazy.force Support.imdb_mid in
  let table = "movie_info_idx" in
  let col = Storage.Table.column_index (Storage.Database.find_table db table) "info" in
  let forced analyze =
    let cs = Dbstats.Analyze.column analyze ~table ~col in
    ( Option.map Dbstats.Histogram.bounds (Dbstats.Column_stats.histogram cs),
      Dbstats.Column_stats.ranks cs )
  in
  let serial = forced (Dbstats.Analyze.create db) in
  Alcotest.(check bool) "serial read has a histogram" true (fst serial <> None);
  let pool = Util.Domain_pool.create ~domains:2 in
  Fun.protect
    ~finally:(fun () -> Util.Domain_pool.shutdown pool)
    (fun () ->
      for round = 1 to 10 do
        let analyze = Dbstats.Analyze.create db in
        ignore (Dbstats.Analyze.table analyze table);
        Array.iter
          (fun got ->
            Alcotest.(check bool)
              (Printf.sprintf "round %d: equal to the serial read" round)
              true (got = serial))
          (Util.Domain_pool.map_array pool (fun _ -> forced analyze) [| 0; 1 |])
      done)

(* --- Analyze ------------------------------------------------------------------------- *)

let test_analyze_caching () =
  let db = Lazy.force Support.imdb in
  let a = Dbstats.Analyze.create db in
  let s1 = Dbstats.Analyze.table a "title" in
  let s2 = Dbstats.Analyze.table a "title" in
  Alcotest.(check bool) "same object" true (s1 == s2);
  Alcotest.(check int) "row count" (Storage.Table.row_count s1.Dbstats.Analyze.table)
    s1.Dbstats.Analyze.row_count;
  Alcotest.(check int) "per-column stats"
    (Storage.Table.column_count s1.Dbstats.Analyze.table)
    (Array.length s1.Dbstats.Analyze.columns)

let test_analyze_column_access () =
  let db = Lazy.force Support.imdb in
  let a = Dbstats.Analyze.create db in
  let t = Storage.Database.find_table db "title" in
  let col = Storage.Table.column_index t "production_year" in
  let cs = Dbstats.Analyze.column a ~table:"title" ~col in
  Alcotest.(check bool) "has histogram" true (Dbstats.Column_stats.histogram cs <> None)

(* --- Statistics warm-up ------------------------------------------------------------ *)

(* [Core.Pipeline.warm_statistics] as it was: all four passes over every
   query, with no stop at saturation. *)
let reference_warm (pipe : Core.Pipeline.t) queries =
  let db = Core.Pipeline.db pipe in
  let sctx (q : Core.Pipeline.query) = { Cardest.Systems.db; graph = q.graph } in
  let base_pass (est : Cardest.Estimator.t) (q : Core.Pipeline.query) =
    Array.iter
      (fun (r : Query.Query_graph.relation) ->
        if r.preds <> [] then ignore (est.base r.idx))
      (Query.Query_graph.relations q.graph)
  in
  let subset_pass (est : Cardest.Estimator.t) (q : Core.Pipeline.query) =
    Array.iter
      (fun s -> if Util.Bitset.cardinal s - 1 <= 6 then ignore (est.subset s))
      (Query.Query_graph.connected_subsets q.graph)
  in
  List.iter (fun q -> base_pass (Cardest.Systems.postgres pipe.analyze (sctx q)) q) queries;
  List.iter (fun q -> base_pass (Cardest.Systems.dbms_b pipe.coarse (sctx q)) q) queries;
  List.iter (fun q -> subset_pass (Cardest.Systems.postgres pipe.analyze (sctx q)) q) queries;
  List.iter (fun q -> subset_pass (Cardest.Systems.dbms_b pipe.coarse (sctx q)) q) queries

let same_column_stats (a : Dbstats.Column_stats.t) (b : Dbstats.Column_stats.t) =
  a.row_count = b.row_count
  && same_float a.null_fraction b.null_fraction
  && same_float a.distinct_sampled b.distinct_sampled
  && same_float a.distinct_exact b.distinct_exact
  && Array.length a.mcv = Array.length b.mcv
  && Array.for_all2 (fun (c1, f1) (c2, f2) -> c1 = c2 && same_float f1 f2) a.mcv b.mcv
  && Option.map Dbstats.Histogram.bounds (Dbstats.Column_stats.histogram a)
     = Option.map Dbstats.Histogram.bounds (Dbstats.Column_stats.histogram b)
  && Dbstats.Column_stats.ranks a = Dbstats.Column_stats.ranks b

(* The warm-up that stops at saturation leaves both ANALYZE instances as
   the full replay does: the same number of analyzed tables, then (in
   table order, which analyzes any table the replay left out on both
   sides alike) the same sample and statistics for every table. The JOB
   workload saturates both instances; a single query saturates neither
   and replays in full. *)
let test_warm_statistics_oracle () =
  List.iter
    (fun scale ->
      let db = Support.fresh_imdb ~scale () in
      let tables = Storage.Database.table_names db in
      List.iter
        (fun (label, queries, saturates) ->
          let warmed db warm =
            let pipe = Core.Pipeline.create db in
            let bound =
              List.map
                (fun (q : Workload.Job.query) -> Core.Pipeline.bind pipe ~name:q.name q.sql)
                queries
            in
            warm pipe bound;
            pipe
          in
          let fast = warmed db Core.Pipeline.warm_statistics in
          let full = warmed db reference_warm in
          List.iter
            (fun (instance, get) ->
              let what = Printf.sprintf "scale %g, %s, %s instance" scale label instance in
              let a = get fast and b = get full in
              Alcotest.(check int) (what ^ ": analyzed tables")
                (Dbstats.Analyze.analyzed_tables b) (Dbstats.Analyze.analyzed_tables a);
              Alcotest.(check bool) (what ^ ": saturated") saturates
                (Dbstats.Analyze.analyzed_tables b = List.length tables);
              List.iter
                (fun name ->
                  let sa = Dbstats.Analyze.table a name and sb = Dbstats.Analyze.table b name in
                  if Dbstats.Sample.rows sa.sample <> Dbstats.Sample.rows sb.sample then
                    Alcotest.failf "%s: %s sample differs" what name;
                  let columns (s : Dbstats.Analyze.table_stats) =
                    Array.map Util.Once.force s.columns
                  in
                  if not (Array.for_all2 same_column_stats (columns sa) (columns sb)) then
                    Alcotest.failf "%s: %s column stats differ" what name)
                tables)
            [
              ("default", fun (p : Core.Pipeline.t) -> p.analyze);
              ("coarse", fun (p : Core.Pipeline.t) -> p.coarse);
            ])
        [ ("JOB", Workload.Job.all, true); ("1a only", [ Workload.Job.find "1a" ], false) ])
    [ 0.001; 0.005 ]

let suite =
  [
    Alcotest.test_case "sample sizes" `Quick test_sample_sizes;
    Alcotest.test_case "sample selectivity exact" `Quick test_sample_full_selectivity_exact;
    Alcotest.test_case "histogram empty" `Quick test_histogram_empty;
    Alcotest.test_case "histogram bounds" `Quick test_histogram_bounds_sorted;
    histogram_vs_brute_force;
    Alcotest.test_case "histogram cmp consistency" `Quick test_histogram_cmp_consistency;
    histogram_of_counts;
    Alcotest.test_case "histogram of counts edges" `Quick test_histogram_of_counts_edges;
    Alcotest.test_case "stats null fraction" `Quick test_column_stats_null_fraction;
    Alcotest.test_case "stats mcv" `Quick test_column_stats_mcv;
    Alcotest.test_case "stats distinct" `Quick test_column_stats_distinct_exact;
    Alcotest.test_case "stats ranks" `Quick test_column_stats_ranks;
    Alcotest.test_case "rank of string" `Quick test_rank_of_string_boundary;
    Alcotest.test_case "rank of string = linear count" `Quick test_rank_of_string_linear;
    Alcotest.test_case "column stats = reference build" `Quick test_column_stats_identity;
    Alcotest.test_case "deferred statistics, two domains" `Quick
      test_deferred_statistics_two_domains;
    Alcotest.test_case "analyze caching" `Quick test_analyze_caching;
    Alcotest.test_case "analyze column access" `Quick test_analyze_column_access;
    Alcotest.test_case "warm-up = full replay" `Quick test_warm_statistics_oracle;
  ]
