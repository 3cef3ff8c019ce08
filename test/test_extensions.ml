(* Tests for the future-work extensions: the join-sampling estimator and
   the q-error plan-quality bound. *)

module QG = Query.Query_graph
module Bitset = Util.Bitset

let db = Support.imdb_mid

let bind sql = Sqlfront.Binder.bind_sql (Lazy.force db) ~name:"ext" sql

let test_sample_rates () =
  let s = Cardest.Join_sample.create (Lazy.force db) in
  (* Dimension tables stay whole; fact tables are sampled. *)
  Alcotest.(check (float 0.0)) "kind_type whole" 1.0
    (Cardest.Join_sample.sampling_rate s "kind_type");
  Alcotest.(check (float 0.0)) "cast_info sampled" 0.1
    (Cardest.Join_sample.sampling_rate s "cast_info");
  (try
     ignore (Cardest.Join_sample.sampling_rate s "nope");
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_sample_sizes_plausible () =
  let s = Cardest.Join_sample.create (Lazy.force db) in
  let sdb = Cardest.Join_sample.sampled_db s in
  let orig = Storage.Database.find_table (Lazy.force db) "cast_info" in
  let sampled = Storage.Database.find_table sdb "cast_info" in
  let expected = float_of_int (Storage.Table.row_count orig) *. 0.1 in
  let got = float_of_int (Storage.Table.row_count sampled) in
  Alcotest.(check bool)
    (Printf.sprintf "10%% sample (%.0f of %d)" got (Storage.Table.row_count orig))
    true
    (Float.abs (got -. expected) < 0.3 *. expected);
  (* Dimension tables are shared untouched. *)
  Alcotest.(check bool) "kind_type shared" true
    (Storage.Database.find_table sdb "kind_type"
    == Storage.Database.find_table (Lazy.force db) "kind_type")

let test_sample_estimator_unbiased_direction () =
  (* On an unfiltered FK join, the scaled sample estimate must land
     within a factor of ~2 of the truth (it is unbiased; variance at
     this size is modest). *)
  let b =
    bind
      "SELECT MIN(t.title) FROM title AS t, movie_keyword AS mk WHERE \
       t.id = mk.movie_id"
  in
  let g = b.Sqlfront.Binder.graph in
  let s = Cardest.Join_sample.create (Lazy.force db) in
  let est = Cardest.Join_sample.estimator s g in
  let tc = Cardest.True_card.compute g in
  let full = QG.full_set g in
  let estimate = est.Cardest.Estimator.subset full in
  let truth = Cardest.True_card.card tc full in
  Alcotest.(check bool)
    (Printf.sprintf "within 2x (est %.0f true %.0f)" estimate truth)
    true
    (estimate > truth /. 2.0 && estimate < truth *. 2.0)

let test_sample_estimator_sees_correlation () =
  (* The join-crossing correlation (US companies <-> 'USA' info): the
     sample-based estimate must beat the independence-based one. *)
  let database = Lazy.force db in
  let b =
    bind
      "SELECT MIN(t.title) FROM title AS t, movie_companies AS mc, \
       company_name AS cn, movie_info AS mi, info_type AS it WHERE \
       t.id = mc.movie_id AND mc.company_id = cn.id AND t.id = mi.movie_id \
       AND mi.info_type_id = it.id AND cn.country_code = '[us]' AND \
       it.info = 'countries' AND mi.info = 'USA'"
  in
  let g = b.Sqlfront.Binder.graph in
  let truth =
    Float.max 1.0 (Cardest.True_card.card (Cardest.True_card.compute g) (QG.full_set g))
  in
  let sample_est =
    (Cardest.Join_sample.estimator (Cardest.Join_sample.create database) g)
      .Cardest.Estimator.subset (QG.full_set g)
  in
  let pg_est =
    (Cardest.Systems.postgres (Dbstats.Analyze.create database)
       { Cardest.Systems.db = database; graph = g })
      .Cardest.Estimator.subset (QG.full_set g)
  in
  let q est = Util.Stat.q_error ~estimate:(Float.max 1.0 est) ~truth in
  Alcotest.(check bool)
    (Printf.sprintf "sampling q=%.1f <= PG q=%.1f" (q sample_est) (q pg_est))
    true
    (q sample_est <= q pg_est)

let test_qbound () =
  Alcotest.(check (float 1e-9)) "bound math" 16.0
    (Cardest.Qbound.cost_ratio_bound ~q:2.0);
  let b =
    bind
      "SELECT MIN(t.title) FROM title AS t, movie_keyword AS mk WHERE \
       t.id = mk.movie_id"
  in
  let g = b.Sqlfront.Binder.graph in
  let truth = Cardest.True_card.compute g in
  (* The oracle has q = 1 by definition. *)
  Alcotest.(check (float 1e-9)) "oracle q" 1.0
    (Cardest.Qbound.worst_q ~truth (Cardest.True_card.estimator truth) g);
  (* Any other estimator has q >= 1. *)
  let database = Lazy.force db in
  let pg =
    Cardest.Systems.postgres (Dbstats.Analyze.create database)
      { Cardest.Systems.db = database; graph = g }
  in
  Alcotest.(check bool) "pg q >= 1" true (Cardest.Qbound.worst_q ~truth pg g >= 1.0)

let test_qbound_holds_on_query () =
  (* The theorem, end to end on one query: actual cost ratio <= q^4. *)
  let database = Lazy.force db in
  Storage.Database.set_index_config database Storage.Database.No_indexes;
  let q = Workload.Job.find "3a" in
  let b = Sqlfront.Binder.bind_sql database ~name:"3a" q.Workload.Job.sql in
  let g = b.Sqlfront.Binder.graph in
  let truth = Cardest.True_card.compute g in
  let pg =
    Cardest.Systems.postgres (Dbstats.Analyze.create database)
      { Cardest.Systems.db = database; graph = g }
  in
  let search card =
    Planner.Search.create ~model:Cost.Cost_model.cmm ~graph:g ~db:database ~card ()
  in
  let plan, _ = Planner.Dp.optimize (search pg.Cardest.Estimator.subset) in
  let _, optimal = Planner.Dp.optimize (search (Cardest.True_card.card truth)) in
  let env =
    { Cost.Cost_model.graph = g; db = database; card = Cardest.True_card.card truth }
  in
  let actual = Cost.Cost_model.plan_cost Cost.Cost_model.cmm env plan /. optimal in
  let bound =
    Cardest.Qbound.cost_ratio_bound ~q:(Cardest.Qbound.worst_q ~truth pg g)
  in
  Alcotest.(check bool)
    (Printf.sprintf "actual %.2f <= bound %.1f" actual bound)
    true (actual <= bound +. 1e-6)

let test_extensions_render () =
  let mini =
    List.filter
      (fun q -> List.mem q.Workload.Job.name [ "1a"; "2b" ])
      Workload.Job.all
  in
  let h = Experiments.Harness.create ~seed:5 ~scale:0.0006 ~queries:mini () in
  let out = Experiments.Exp_extensions.render h in
  Alcotest.(check bool) "mentions join sampling" true
    (let needle = "join sampling" in
     let n = String.length needle in
     let found = ref false in
     String.iteri
       (fun i _ ->
         if i + n <= String.length out && String.sub out i n = needle then
           found := true)
       out;
     !found)

let suite =
  [
    Alcotest.test_case "sample rates" `Quick test_sample_rates;
    Alcotest.test_case "sample sizes" `Quick test_sample_sizes_plausible;
    Alcotest.test_case "sampling unbiased" `Quick test_sample_estimator_unbiased_direction;
    Alcotest.test_case "sampling sees correlations" `Quick
      test_sample_estimator_sees_correlation;
    Alcotest.test_case "q-bound basics" `Quick test_qbound;
    Alcotest.test_case "q-bound holds" `Quick test_qbound_holds_on_query;
    Alcotest.test_case "extensions render" `Quick test_extensions_render;
  ]
