(* Tests for the experiments library beyond the integration suite:
   rendering smoke tests on a miniature harness, the ablation APIs, and
   the engine-config axes they exercise. *)

(* Figure 4 needs its named queries; the damping sweep needs at least one
   query with deep (>= 4-join) subexpressions. *)
let mini_queries =
  List.filter
    (fun q ->
      List.mem q.Workload.Job.name [ "1a"; "2b"; "3a"; "6a"; "16d"; "17b"; "25c" ])
    Workload.Job.all

let harness =
  lazy (Experiments.Harness.create ~seed:11 ~scale:0.0006 ~queries:mini_queries ())

let contains haystack needle =
  let n = String.length needle in
  let found = ref false in
  String.iteri
    (fun i _ ->
      if i + n <= String.length haystack && String.sub haystack i n = needle then
        found := true)
    haystack;
  !found

let test_render_table1 () =
  let out = Experiments.Exp_table1.render (Lazy.force harness) in
  Alcotest.(check bool) "mentions systems" true (contains out "PostgreSQL");
  Alcotest.(check bool) "mentions HyPer" true (contains out "HyPer")

let test_render_fig5 () =
  let out = Experiments.Exp_fig5.render (Lazy.force harness) in
  Alcotest.(check bool) "both variants" true (contains out "true distinct")

let test_render_fig4 () =
  let out = Experiments.Exp_fig4.render (Lazy.force harness) in
  Alcotest.(check bool) "JOB side" true (contains out "JOB 6a");
  Alcotest.(check bool) "TPC-H side" true (contains out "TPC-H 10")

let test_fig4_tpch_is_easy () =
  (* The point of Figure 4: TPC-H estimates stay within one order of
     magnitude at every join count. *)
  let data = Experiments.Exp_fig4.measure (Lazy.force harness) in
  List.iter
    (fun (name, rows) ->
      if String.length name >= 5 && String.sub name 0 5 = "TPC-H" then
        List.iter
          (fun (_, box) ->
            match box with
            | None -> ()
            | Some (b : Util.Stat.boxplot) ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s median within 10x (%.3f)" name b.Util.Stat.p50)
                  true
                  (b.Util.Stat.p50 > 0.1 && b.Util.Stat.p50 < 10.0))
          rows)
    data

let test_ablation_statistics_knobs () =
  let out = Experiments.Exp_ablation.statistics_knobs (Lazy.force harness) in
  Alcotest.(check bool) "has variants" true (contains out "no MCV list")

let test_ablation_damping () =
  let out = Experiments.Exp_ablation.damping_sweep (Lazy.force harness) in
  Alcotest.(check bool) "sweep rows" true (contains out "0.85")

let test_ablation_syntactic_order () =
  let out = Experiments.Exp_ablation.syntactic_order (Lazy.force harness) in
  Alcotest.(check bool) "permutations" true (contains out "reversed")

let test_dbms_a_damping_monotone () =
  (* Less damping (exponent closer to 1) must give smaller or equal deep
     estimates: sel^c is monotone in c for sel < 1. *)
  let h = Lazy.force harness in
  let q = Experiments.Harness.find h "2b" in
  let ctx =
    { Cardest.Systems.db = h.Experiments.Harness.db;
      graph = q.Experiments.Harness.graph }
  in
  let full = Query.Query_graph.full_set q.Experiments.Harness.graph in
  let estimate damping =
    (Cardest.Systems.dbms_a_damped damping h.Experiments.Harness.analyze ctx)
      .Cardest.Estimator.subset full
  in
  Alcotest.(check bool) "0.7 >= 0.9" true (estimate 0.7 >= estimate 0.9);
  Alcotest.(check bool) "0.9 >= 1.0" true (estimate 0.9 >= estimate 1.0)

let test_bucket_floor_configurable () =
  let tiny =
    Exec.Join_table.create ~bucket_floor:16 ~estimated_rows:1.0 ~resizable:false [||]
  in
  Alcotest.(check int) "floor 16" 16 (Exec.Join_table.bucket_count tiny);
  let default = Exec.Join_table.create ~estimated_rows:1.0 ~resizable:false [||] in
  Alcotest.(check int) "floor 1024" 1024 (Exec.Join_table.bucket_count default)

let test_engine_floor_affects_work () =
  (* Same plan, same estimates: a tiny bucket floor must cost at least as
     much as the default. *)
  let db = Lazy.force Support.imdb_mid in
  Storage.Database.set_index_config db Storage.Database.No_indexes;
  let b =
    Sqlfront.Binder.bind_sql db ~name:"floor"
      "SELECT MIN(t.title) FROM title AS t, cast_info AS ci WHERE \
       t.id = ci.movie_id"
  in
  let g = b.Sqlfront.Binder.graph in
  let e = List.hd (Query.Query_graph.edges g) in
  let plan =
    Plan.join Plan.Hash_join
      ~outer:(Plan.scan e.Query.Query_graph.left)
      ~inner:(Plan.scan e.Query.Query_graph.right)
  in
  let work floor =
    let config =
      { Exec.Engine_config.no_nl with Exec.Engine_config.hash_bucket_floor = floor }
    in
    (Exec.Executor.run ~db ~graph:g ~config ~size_est:(fun _ -> 1.0) plan)
      .Exec.Executor.work
  in
  Alcotest.(check bool) "floor 16 >= floor 8192" true (work 16 >= work 8192)

let suite =
  [
    Alcotest.test_case "render table 1" `Quick test_render_table1;
    Alcotest.test_case "render figure 5" `Quick test_render_fig5;
    Alcotest.test_case "render figure 4" `Quick test_render_fig4;
    Alcotest.test_case "TPC-H is easy" `Quick test_fig4_tpch_is_easy;
    Alcotest.test_case "ablation: statistics knobs" `Quick test_ablation_statistics_knobs;
    Alcotest.test_case "ablation: damping sweep" `Quick test_ablation_damping;
    Alcotest.test_case "ablation: syntactic order" `Quick test_ablation_syntactic_order;
    Alcotest.test_case "damping monotone" `Quick test_dbms_a_damping_monotone;
    Alcotest.test_case "bucket floor configurable" `Quick test_bucket_floor_configurable;
    Alcotest.test_case "engine floor affects work" `Quick test_engine_floor_affects_work;
  ]
