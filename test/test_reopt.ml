(* Tests for lib/reopt: feedback-store overlay semantics, the
   re-optimization driver's invariants (identical results with the loop
   on and off, sanitized re-planned fragments, deterministic
   trajectories), and the Simpli-Squared enumerator registration. *)

module QG = Query.Query_graph
module Bitset = Util.Bitset

let db = Support.imdb_mid

let bind name =
  let q = Workload.Job.find name in
  Sqlfront.Binder.bind_sql (Lazy.force db) ~name q.Workload.Job.sql

let pg_estimator database graph =
  Cardest.Systems.postgres
    (Dbstats.Analyze.create database)
    { Cardest.Systems.db = database; graph }

(* ------------------------------------------------------------------ *)
(* Feedback store and overlay                                          *)

let constant name v =
  Cardest.Estimator.of_function ~name ~base:(fun _ -> v) (fun _ -> v)

let test_feedback_store () =
  let fb = Reopt.Feedback.create () in
  Alcotest.(check int) "empty" 0 (Reopt.Feedback.cardinal fb);
  let s = Bitset.of_list [ 1; 2 ] in
  Reopt.Feedback.record fb s ~rows:41;
  Reopt.Feedback.record fb s ~rows:42;
  Alcotest.(check int) "overwrite keeps one entry" 1
    (Reopt.Feedback.cardinal fb);
  Alcotest.(check (option (float 0.0))) "latest observation wins"
    (Some 42.0)
    (Reopt.Feedback.observed fb s);
  Alcotest.(check (option (float 0.0))) "unobserved" None
    (Reopt.Feedback.observed fb (Bitset.of_list [ 1; 3 ]))

let test_overlay_semantics () =
  let fb = Reopt.Feedback.create () in
  let seen = Bitset.of_list [ 0; 1 ] in
  let unseen = Bitset.of_list [ 0; 2 ] in
  Reopt.Feedback.record fb seen ~rows:7;
  let est = Reopt.Feedback.overlay ~fallback:(constant "c" 1000.0) fb in
  Alcotest.(check (float 0.0)) "observed answers exactly" 7.0
    (est.Cardest.Estimator.subset seen);
  Alcotest.(check (float 0.0)) "unobserved delegates" 1000.0
    (est.Cardest.Estimator.subset unseen);
  (* A singleton observation overrides the base estimate of its
     relation; an unobserved relation's base falls back. *)
  Reopt.Feedback.record fb (Bitset.singleton 3) ~rows:9;
  let with_base =
    Reopt.Feedback.overlay
      ~fallback:
        (Cardest.Estimator.of_function ~name:"b" ~base:(fun _ -> 50.0)
           (fun _ -> 500.0))
      fb
  in
  Alcotest.(check (float 0.0)) "observed singleton overrides base" 9.0
    (with_base.Cardest.Estimator.base 3);
  Alcotest.(check (float 0.0)) "unobserved base falls back" 50.0
    (with_base.Cardest.Estimator.base 4);
  (* Snapshot semantics: an overlay is frozen at creation. *)
  Reopt.Feedback.record fb unseen ~rows:3;
  Alcotest.(check (float 0.0)) "existing overlay unchanged" 1000.0
    (est.Cardest.Estimator.subset unseen);
  let est' = Reopt.Feedback.overlay ~fallback:(constant "c" 1000.0) fb in
  Alcotest.(check (float 0.0)) "fresh overlay sees it" 3.0
    (est'.Cardest.Estimator.subset unseen);
  Alcotest.(check bool) "snapshots get distinct cache names" false
    (String.equal est.Cardest.Estimator.name est'.Cardest.Estimator.name)

let test_overlay_name_order_independent () =
  (* The estimator name embeds a content digest; recording the same
     observations in a different order must produce the same name, or
     the pipeline's name-keyed plan cache would split. *)
  let a = Reopt.Feedback.create () and b = Reopt.Feedback.create () in
  let obs = [ (Bitset.of_list [ 0; 1 ], 5); (Bitset.of_list [ 2; 3 ], 9) ] in
  List.iter (fun (s, rows) -> Reopt.Feedback.record a s ~rows) obs;
  List.iter
    (fun (s, rows) -> Reopt.Feedback.record b s ~rows)
    (List.rev obs);
  let name fb =
    (Reopt.Feedback.overlay ~fallback:(constant "c" 1.0) fb)
      .Cardest.Estimator.name
  in
  Alcotest.(check string) "digest is order-independent" (name a) (name b)

(* ------------------------------------------------------------------ *)
(* The driver                                                          *)

let drive database (b : Sqlfront.Binder.bound) ~threshold ~max_replans =
  let graph = b.Sqlfront.Binder.graph in
  Reopt.Driver.run ~db:database ~graph
    ~config:Exec.Engine_config.default_9_4 ~model:Cost.Cost_model.postgres
    ~estimator:(pg_estimator database graph)
    ~threshold ~max_replans
    ~projections:b.Sqlfront.Binder.projections ()

let test_driver_results_identical_and_sanitized () =
  let database = Lazy.force db in
  Storage.Database.set_index_config database Storage.Database.Pk_only;
  let total_replans = ref 0 in
  List.iter
    (fun name ->
      let b = bind name in
      let graph = b.Sqlfront.Binder.graph in
      let off = drive database b ~threshold:1.1 ~max_replans:0 in
      let on = drive database b ~threshold:1.1 ~max_replans:8 in
      Alcotest.(check int)
        (name ^ ": off arm never re-plans")
        0 off.Reopt.Driver.replans;
      total_replans := !total_replans + on.Reopt.Driver.replans;
      (* The executor is exact, so both arms must return the query's true
         result — rows and aggregates. *)
      Alcotest.(check int)
        (name ^ ": identical row counts")
        off.Reopt.Driver.result.Exec.Executor.rows
        on.Reopt.Driver.result.Exec.Executor.rows;
      Alcotest.(check bool)
        (name ^ ": identical aggregates")
        true
        (off.Reopt.Driver.result.Exec.Executor.mins
        = on.Reopt.Driver.result.Exec.Executor.mins);
      let truth =
        int_of_float
          (Cardest.True_card.card
             (Cardest.True_card.compute graph)
             (QG.full_set graph))
      in
      Alcotest.(check int) (name ^ ": exact result") truth
        on.Reopt.Driver.result.Exec.Executor.rows;
      (* The driver sanitizes every re-planned tree before executing it;
         re-checking the survivor here would catch a driver that skips
         the check (ensure_plan raises on any violation). *)
      Verify.ensure_plan ~what:(name ^ "/test") graph
        on.Reopt.Driver.final_plan;
      Alcotest.(check bool)
        (name ^ ": accounting sane")
        true
        (on.Reopt.Driver.wasted_work >= 0
        && on.Reopt.Driver.reused_work >= 0
        && on.Reopt.Driver.result.Exec.Executor.work > 0
        && Reopt.Feedback.cardinal on.Reopt.Driver.feedback > 0))
    [ "2a"; "16d" ];
  Alcotest.(check bool)
    (Printf.sprintf "loop actually re-planned (%d re-plans)" !total_replans)
    true (!total_replans > 0)

let test_driver_deterministic () =
  let database = Lazy.force db in
  Storage.Database.set_index_config database Storage.Database.Pk_only;
  let b = bind "2a" in
  let run () = drive database b ~threshold:1.3 ~max_replans:8 in
  let a = run () and c = run () in
  Alcotest.(check int) "same re-plan count" a.Reopt.Driver.replans
    c.Reopt.Driver.replans;
  Alcotest.(check int) "same total work"
    a.Reopt.Driver.result.Exec.Executor.work
    c.Reopt.Driver.result.Exec.Executor.work;
  Alcotest.(check int) "same rows" a.Reopt.Driver.result.Exec.Executor.rows
    c.Reopt.Driver.result.Exec.Executor.rows

let test_driver_validates_arguments () =
  let database = Lazy.force db in
  let b = bind "1a" in
  (try
     ignore (drive database b ~threshold:0.5 ~max_replans:8);
     Alcotest.fail "threshold < 1 must be rejected"
   with Invalid_argument _ -> ());
  try
    ignore (drive database b ~threshold:2.0 ~max_replans:(-1));
    Alcotest.fail "negative max_replans must be rejected"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Registry integration                                                *)

let test_simpli_enumerator () =
  let database = Lazy.force db in
  Storage.Database.set_index_config database Storage.Database.Pk_only;
  let b = bind "6a" in
  let graph = b.Sqlfront.Binder.graph in
  let est = pg_estimator database graph in
  let search =
    Planner.Search.create ~model:Cost.Cost_model.postgres ~graph ~db:database
      ~card:est.Cardest.Estimator.subset ()
  in
  let plan, cost = Planner.Simpli.optimize search in
  Alcotest.(check bool) "covers the full set" true
    (Bitset.equal plan.Plan.set (QG.full_set graph));
  Alcotest.(check bool) "finite cost" true (Float.is_finite cost && cost > 0.0);
  Verify.ensure_plan ~what:"simpli/test" graph plan;
  (* Registry round trip: the name resolves to the variant and to the
     verifier's enumerator. *)
  (match Core.Registry.(find_exn enumerators) "simpli" with
  | Core.Registry.Simpli_squared -> ()
  | _ -> Alcotest.fail "'simpli' must resolve to Simpli_squared");
  Alcotest.(check bool) "verify maps simpli" true
    (Core.Registry.verify_enumerator Core.Registry.Simpli_squared
    = Verify.Simpli)

let test_feedback_estimator_registered () =
  (* The "feedback" registry entry with an empty store must behave as
     pure PostgreSQL delegation. *)
  let s = Core.Session.of_database (Lazy.force db) in
  let q = Core.Session.job s "1a" in
  let fb = Core.Session.estimator s q "feedback" in
  let pg = Core.Session.estimator s q "PostgreSQL" in
  let full = QG.full_set q.Core.Session.graph in
  Alcotest.(check (float 0.0)) "empty overlay delegates"
    (pg.Cardest.Estimator.subset full)
    (fb.Cardest.Estimator.subset full)

let suite =
  [
    Alcotest.test_case "feedback store" `Quick test_feedback_store;
    Alcotest.test_case "overlay semantics" `Quick test_overlay_semantics;
    Alcotest.test_case "overlay digest order-independent" `Quick
      test_overlay_name_order_independent;
    Alcotest.test_case "identical results, sanitized plans" `Quick
      test_driver_results_identical_and_sanitized;
    Alcotest.test_case "driver deterministic" `Quick test_driver_deterministic;
    Alcotest.test_case "driver validates arguments" `Quick
      test_driver_validates_arguments;
    Alcotest.test_case "simpli enumerator" `Quick test_simpli_enumerator;
    Alcotest.test_case "feedback estimator registered" `Quick
      test_feedback_estimator_registered;
  ]
