(* Tests for the optimizer sanitizer: the analysis passes must accept
   everything the real pipeline produces (property-style over random
   micro databases) and reject deliberately mutated plans, estimates,
   costs and query graphs with actionable messages. *)

module Bitset = Util.Bitset
module QG = Query.Query_graph

let micro ?(relations = 4) ?(extra_edges = 1) seed =
  let prng = Util.Prng.create seed in
  let db = Support.micro_db prng ~tables:relations ~rows:15 in
  let g = Support.micro_query prng db ~relations ~extra_edges in
  (db, g)

let true_estimator g =
  Cardest.True_card.estimator (Cardest.True_card.compute g)

let contains sub s =
  let n = String.length sub in
  let found = ref false in
  String.iteri
    (fun i _ -> if i + n <= String.length s && String.sub s i n = sub then found := true)
    s;
  !found

let has_violation ~containing result =
  List.exists
    (fun (v : Verify.Violation.t) -> contains containing v.Verify.Violation.message)
    result.Verify.Violation.violations

(* ------------------------------------------------------------------ *)
(* Whole-matrix acceptance on the real pipeline                        *)

let check_all_accepts_pipeline =
  Support.qcheck_case ~count:15 ~name:"check_all: zero violations on real pipeline"
    QCheck.(pair small_int (int_range 2 4))
    (fun (seed, relations) ->
      (* extra_edges 0: random extras can duplicate a tree edge, which
         the graph lint (part of check_all) correctly rejects. *)
      let db, g = micro ~relations ~extra_edges:0 seed in
      Storage.Database.set_index_config db Storage.Database.Pk_only;
      let tc = Cardest.True_card.compute g in
      let truth = Cardest.True_card.card tc in
      let report =
        Verify.check_all ~query:"micro" ~graph:g ~db
          ~estimators:[ Cardest.True_card.estimator tc ]
          ~models:Cost.Cost_model.all ~pk_bound:true ~truth ()
      in
      Verify.Violation.ok report)

let system_estimators_accepted =
  Support.qcheck_case ~count:10 ~name:"estimate sanitizer: five systems clean"
    QCheck.small_int
    (fun seed ->
      let db, g = micro ~relations:3 seed in
      let analyze = Dbstats.Analyze.create db in
      List.for_all
        (fun name ->
          let est = Support.system_estimator db analyze g name in
          Verify.Violation.ok (Verify.check_estimates g est))
        Cardest.Systems.names)

(* ------------------------------------------------------------------ *)
(* Plan sanitizer rejections                                           *)

let chain_graph () =
  (* Star 1-0, 2-0 built deterministically: relations 1 and 2 share no
     edge, so joining them first is a cross product. *)
  let prng = Util.Prng.create 3 in
  let db = Support.micro_db prng ~tables:3 ~rows:10 in
  let rels =
    Array.init 3 (fun idx ->
        {
          QG.idx;
          alias = Printf.sprintf "t%d" idx;
          table = Storage.Database.find_table db (Printf.sprintf "t%d" idx);
          preds = [];
        })
  in
  let edge a b =
    {
      QG.left = a;
      left_col = Storage.Table.column_index rels.(a).QG.table (Printf.sprintf "fk%d" b);
      right = b;
      right_col = Storage.Table.column_index rels.(b).QG.table "id";
      pk_side = Some `Right;
    }
  in
  (db, QG.create ~name:"star" rels [ edge 1 0; edge 2 0 ])

let test_rejects_duplicate_relation () =
  let _, g = chain_graph () in
  let s0 = Plan.scan 0 and s1 = Plan.scan 1 in
  let j = Plan.join Plan.Hash_join ~outer:s0 ~inner:s1 in
  (* Hand-built node reusing relation 1: the smart constructor would
     refuse, which is exactly what a buggy enumerator could bypass. *)
  let dup =
    {
      Plan.op = Plan.Join { algo = Plan.Hash_join; outer = j; inner = s1 };
      set = Bitset.of_list [ 0; 1; 2 ];
    }
  in
  let r = Verify.check_plan g dup in
  Alcotest.(check bool) "overlap flagged" true (has_violation ~containing:"overlap" r);
  Alcotest.(check bool) "duplicate flagged" true
    (has_violation ~containing:"appears 2 times" r);
  Alcotest.(check bool) "set mismatch flagged" true
    (has_violation ~containing:"union" r)

let test_rejects_cross_product () =
  let _, g = chain_graph () in
  let j = Plan.join Plan.Hash_join ~outer:(Plan.scan 1) ~inner:(Plan.scan 2) in
  let full = Plan.join Plan.Hash_join ~outer:j ~inner:(Plan.scan 0) in
  let r = Verify.check_plan g full in
  Alcotest.(check bool) "cross product flagged" true
    (has_violation ~containing:"cross product" r);
  Alcotest.(check bool) "disconnected intermediate flagged" true
    (has_violation ~containing:"not a connected subgraph" r)

let test_rejects_incomplete_plan () =
  let _, g = chain_graph () in
  let r = Verify.check_plan g (Plan.scan 0) in
  Alcotest.(check bool) "coverage flagged" true
    (has_violation ~containing:"instead of all 3 relations" r)

let test_rejects_inl_composite_inner () =
  let _, g = chain_graph () in
  let inner = Plan.join Plan.Hash_join ~outer:(Plan.scan 0) ~inner:(Plan.scan 1) in
  let bad =
    {
      Plan.op = Plan.Join { algo = Plan.Index_nl_join; outer = Plan.scan 2; inner };
      set = Bitset.of_list [ 0; 1; 2 ];
    }
  in
  let r = Verify.check_plan g bad in
  Alcotest.(check bool) "INL inner flagged" true
    (has_violation ~containing:"index-NL inner" r)

let test_rejects_shape_violation () =
  let _, g = chain_graph () in
  (* Right-deep: 1 ⋈ (2 ⋈ 0); under a left-deep restriction this is a
     shape violation even though it is structurally sound. *)
  let plan =
    Plan.join Plan.Hash_join ~outer:(Plan.scan 1)
      ~inner:(Plan.join Plan.Hash_join ~outer:(Plan.scan 2) ~inner:(Plan.scan 0))
  in
  let r = Verify.check_plan ~shape:Planner.Search.Only_left_deep g plan in
  Alcotest.(check bool) "shape flagged" true
    (has_violation ~containing:"restricted to left-deep" r);
  Alcotest.(check bool) "accepted under any shape" true
    (Verify.Violation.ok (Verify.check_plan g plan))

(* ------------------------------------------------------------------ *)
(* Estimate sanitizer rejections                                       *)

let poisoned base subset =
  Cardest.Estimator.of_function ~name:"poisoned" ~base subset

let test_rejects_bad_estimates () =
  let _, g = chain_graph () in
  let nan_est =
    poisoned (fun _ -> 10.0) (fun s ->
        if Bitset.cardinal s >= 2 then Float.nan else 10.0)
  in
  Alcotest.(check bool) "NaN flagged" true
    (has_violation ~containing:"nan" (Verify.check_estimates g nan_est));
  let neg_est = poisoned (fun _ -> 10.0) (fun _ -> -3.0) in
  Alcotest.(check bool) "negative flagged" true
    (has_violation ~containing:"negative" (Verify.check_estimates g neg_est));
  let inf_est =
    poisoned (fun _ -> 10.0) (fun s ->
        if Bitset.cardinal s >= 3 then Float.infinity else 10.0)
  in
  Alcotest.(check bool) "infinity flagged" true
    (not (Verify.Violation.ok (Verify.check_estimates g inf_est)))

let test_rejects_inclusion_blowup () =
  let _, g = chain_graph () in
  (* Each added relation multiplies the estimate by 1000, far beyond the
     cross-product bound est(S) · base(r) with base 2. *)
  let blowup =
    poisoned
      (fun _ -> 2.0)
      (fun s -> 1000.0 ** float_of_int (Bitset.cardinal s))
  in
  let r = Verify.check_estimates g blowup in
  Alcotest.(check bool) "cross-product bound flagged" true
    (has_violation ~containing:"cross-product bound" r)

let test_pk_bound_on_truth () =
  let _, g = chain_graph () in
  let est = true_estimator g in
  Alcotest.(check bool) "true cardinalities satisfy PK bound" true
    (Verify.Violation.ok (Verify.check_estimates ~pk_bound:true g est));
  (* An estimator that grows when joining a PK side breaks the bound. *)
  let grower =
    poisoned (fun _ -> 1.0) (fun s -> 10.0 ** float_of_int (Bitset.cardinal s))
  in
  let r = Verify.check_estimates ~pk_bound:true ~slack:1e9 g grower in
  Alcotest.(check bool) "PK bound flagged" true
    (has_violation ~containing:"PK inclusion bound" r)

let test_q_error_checked () =
  (match Verify.q_error_checked ~estimate:10.0 ~truth:100.0 with
  | Ok q -> Alcotest.(check (float 1e-9)) "q-error" 10.0 q
  | Error e -> Alcotest.failf "unexpected rejection: %s" e);
  Alcotest.(check bool) "NaN estimate rejected" true
    (Result.is_error (Verify.q_error_checked ~estimate:Float.nan ~truth:1.0));
  Alcotest.(check bool) "infinite truth rejected" true
    (Result.is_error (Verify.q_error_checked ~estimate:1.0 ~truth:Float.infinity))

(* ------------------------------------------------------------------ *)
(* Cost sanitizer                                                      *)

let models_accept_dp_plans =
  Support.qcheck_case ~count:15 ~name:"cost sanitizer: three models clean on DP plans"
    QCheck.(pair small_int (int_range 2 4))
    (fun (seed, relations) ->
      let db, g = micro ~relations seed in
      Storage.Database.set_index_config db Storage.Database.Pk_fk;
      let est = true_estimator g in
      let env =
        { Cost.Cost_model.graph = g; db; card = est.Cardest.Estimator.subset }
      in
      List.for_all
        (fun model ->
          let search =
            Planner.Search.create ~model ~graph:g ~db
              ~card:est.Cardest.Estimator.subset ()
          in
          let plan, cost = Planner.Dp.optimize search in
          Verify.Violation.ok
            (Verify.check_costs ~reported_cost:cost env model plan))
        Cost.Cost_model.all)

let test_rejects_broken_cost_model () =
  let db, g = chain_graph () in
  let est = true_estimator g in
  let env =
    { Cost.Cost_model.graph = g; db; card = est.Cardest.Estimator.subset }
  in
  let search =
    Planner.Search.create ~model:Cost.Cost_model.cmm ~graph:g ~db
      ~card:est.Cardest.Estimator.subset ()
  in
  let plan, cost = Planner.Dp.optimize search in
  let negative =
    {
      Cost.Cost_model.name = "negative";
      scan_cost = (fun _ _ -> -1.0);
      join_cost =
        (fun _ _ ~outer:_ ~inner:_ ~outer_cost:_ ~inner_cost:_ ~out_card:_ ~outer_card:_
             ~inner_card:_ -> -5.0);
    }
  in
  let r = Verify.check_costs env negative plan in
  Alcotest.(check bool) "negative cost flagged" true
    (has_violation ~containing:"negative" r);
  (* Dropping the children's cost breaks subtree monotonicity. *)
  let forgetful =
    {
      Cost.Cost_model.name = "forgetful";
      scan_cost = (fun env r -> Cost.Cost_model.cmm.Cost.Cost_model.scan_cost env r);
      join_cost =
        (fun _ _ ~outer:_ ~inner:_ ~outer_cost:_ ~inner_cost:_ ~out_card:_ ~outer_card:_
             ~inner_card:_ -> 0.5);
    }
  in
  let r = Verify.check_costs env forgetful plan in
  Alcotest.(check bool) "non-monotone cost flagged" true
    (has_violation ~containing:"less than its outer child" r);
  (* A wrong reported total is a search/model disagreement. *)
  let r =
    Verify.check_costs ~reported_cost:(cost *. 2.0) env Cost.Cost_model.cmm plan
  in
  Alcotest.(check bool) "reported-cost mismatch flagged" true
    (has_violation ~containing:"recomputes" r)

let dp_dominates_heuristics =
  Support.qcheck_case ~count:15 ~name:"differential: DP <= GOO and QuickPick"
    QCheck.(pair small_int (int_range 3 5))
    (fun (seed, relations) ->
      let db, g = micro ~relations seed in
      Storage.Database.set_index_config db Storage.Database.Pk_only;
      let est = true_estimator g in
      let search =
        Planner.Search.create ~model:Cost.Cost_model.cmm ~graph:g ~db
          ~card:est.Cardest.Estimator.subset ()
      in
      let _, dp_cost = Planner.Dp.optimize search in
      let _, goo_cost = Planner.Goo.optimize search in
      let _, qp_cost =
        Planner.Quickpick.best_of search (Util.Prng.create seed) ~attempts:5
      in
      Verify.Violation.ok
        (Verify.Cost_sanitizer.differential ~dp:("dp", dp_cost)
           [ ("goo", goo_cost); ("quickpick", qp_cost) ]))

let test_differential_rejects_suboptimal_dp () =
  let r =
    Verify.Cost_sanitizer.differential ~dp:("dp", 10.0) [ ("goo", 5.0) ]
  in
  Alcotest.(check bool) "suboptimal DP flagged" true
    (has_violation ~containing:"missed part" r)

(* ------------------------------------------------------------------ *)
(* Query-graph lint                                                    *)

let lint_accepts_micro_graphs =
  Support.qcheck_case ~count:20 ~name:"graph lint: random micro graphs clean"
    QCheck.(pair small_int (int_range 2 5))
    (fun (seed, relations) ->
      let _, g = micro ~relations ~extra_edges:0 seed in
      Verify.Violation.ok (Verify.check_graph g))

let test_lint_rejects_duplicate_edge () =
  let prng = Util.Prng.create 5 in
  let db = Support.micro_db prng ~tables:2 ~rows:10 in
  let rels =
    Array.init 2 (fun idx ->
        {
          QG.idx;
          alias = Printf.sprintf "t%d" idx;
          table = Storage.Database.find_table db (Printf.sprintf "t%d" idx);
          preds = [];
        })
  in
  let e =
    {
      QG.left = 1;
      left_col = Storage.Table.column_index rels.(1).QG.table "fk0";
      right = 0;
      right_col = Storage.Table.column_index rels.(0).QG.table "id";
      pk_side = Some `Right;
    }
  in
  let g = QG.create ~name:"dup" rels [ e; e ] in
  Alcotest.(check bool) "duplicate edge flagged" true
    (has_violation ~containing:"duplicate edge" (Verify.check_graph g));
  (* Mislabeled PK side: fk0 is not t1's primary key. *)
  let mislabeled = { e with QG.pk_side = Some `Left } in
  let g = QG.create ~name:"mislabel" rels [ mislabeled ] in
  Alcotest.(check bool) "PK mislabel flagged" true
    (has_violation ~containing:"primary key" (Verify.check_graph g))

(* t1 carries the same atom twice; the second graph puts it once on
   each alias. *)
let duplicate_predicate_graphs () =
  let prng = Util.Prng.create 7 in
  let db = Support.micro_db prng ~tables:2 ~rows:10 in
  let atom = Query.Predicate.Cmp { col = 0; op = Query.Predicate.Gt; code = 3 } in
  let rels =
    Array.init 2 (fun idx ->
        {
          QG.idx;
          alias = Printf.sprintf "t%d" idx;
          table = Storage.Database.find_table db (Printf.sprintf "t%d" idx);
          (* The same atom bound twice on t1: estimators would apply its
             selectivity twice. *)
          preds = (if idx = 1 then [ atom; atom ] else [ atom ]);
        })
  in
  let e =
    {
      QG.left = 1;
      left_col = Storage.Table.column_index rels.(1).QG.table "fk0";
      right = 0;
      right_col = Storage.Table.column_index rels.(0).QG.table "id";
      pk_side = Some `Right;
    }
  in
  let rels_ok = Array.map (fun r -> { r with QG.preds = [ atom ] }) rels in
  (QG.create ~name:"duppred" rels [ e ], QG.create ~name:"okpred" rels_ok [ e ])

let test_lint_rejects_duplicate_predicate () =
  let g, g_ok = duplicate_predicate_graphs () in
  Alcotest.(check bool) "duplicate filter predicate flagged" true
    (has_violation ~containing:"duplicate filter predicate"
       (Verify.check_graph g));
  (* The same atom on two different aliases is fine. *)
  Alcotest.(check bool) "distinct per-alias predicates clean" true
    (Verify.Violation.ok (Verify.check_graph g_ok))

(* ------------------------------------------------------------------ *)
(* Check counts and messages                                           *)

(* A report as [jobench verify] prints it: the check count, then every
   violation's pass, subject and message. *)
let report r = Format.asprintf "%a" Verify.Violation.pp_report r

(* Passing checks format nothing, failing ones format as they always
   have: one report of each kind from every sanitizer, pinned byte for
   byte with its check count. *)
let test_reports_pinned () =
  let db, g = chain_graph () in
  let s0 = Plan.scan 0 and s1 = Plan.scan 1 in
  let j = Plan.join Plan.Hash_join ~outer:s0 ~inner:s1 in
  let dup =
    {
      Plan.op = Plan.Join { algo = Plan.Hash_join; outer = j; inner = s1 };
      set = Bitset.of_list [ 0; 1; 2 ];
    }
  in
  let good =
    Plan.join Plan.Hash_join ~outer:(Plan.join Plan.Hash_join ~outer:s1 ~inner:s0)
      ~inner:(Plan.scan 2)
  in
  let blowup =
    poisoned (fun _ -> 2.0) (fun s -> 1000.0 ** float_of_int (Bitset.cardinal s))
  in
  let env = { Cost.Cost_model.graph = g; db; card = (fun _ -> 10.0) } in
  let forgetful =
    {
      Cost.Cost_model.name = "forgetful";
      scan_cost = (fun env r -> Cost.Cost_model.cmm.Cost.Cost_model.scan_cost env r);
      join_cost =
        (fun _ _ ~outer:_ ~inner:_ ~outer_cost:_ ~inner_cost:_ ~out_card:_ ~outer_card:_
             ~inner_card:_ -> 0.5);
    }
  in
  let expected =
    [
      "20 checks, 0 violations\n";
      "19 checks, 3 violations:\n";
      "  [plan-sanitizer] plan: join children overlap on {1}\n";
      "  [plan-sanitizer] plan: join node set {0,1,2} is not the union of its children {0,1} and {1}\n";
      "  [plan-sanitizer] plan: relation 1 (t1) appears 2 times\n";
      "24 checks, 6 violations:\n";
      "  [estimate-sanitizer] estimator: estimate 1e+06 for {0,1} exceeds cross-product bound 4 · est({0})=1000 · base(1)=2\n";
      "  [estimate-sanitizer] estimator: estimate 1e+06 for {0,2} exceeds cross-product bound 4 · est({0})=1000 · base(2)=2\n";
      "  [estimate-sanitizer] estimator: estimate 1e+06 for {0,1} exceeds cross-product bound 4 · est({1})=1000 · base(0)=2\n";
      "  [estimate-sanitizer] estimator: estimate 1e+06 for {0,2} exceeds cross-product bound 4 · est({2})=1000 · base(0)=2\n";
      "  [estimate-sanitizer] estimator: estimate 1e+09 for {0,1,2} exceeds cross-product bound 4 · est({0,1})=1e+06 · base(2)=2\n";
      "  [estimate-sanitizer] estimator: estimate 1e+09 for {0,1,2} exceeds cross-product bound 4 · est({0,2})=1e+06 · base(1)=2\n";
      "14 checks, 3 violations:\n";
      "  [cost-sanitizer] cost: hash join at {0,1} costs 0.5, less than its outer child {1} at 2\n";
      "  [cost-sanitizer] cost: hash join at {0,1} costs 0.5, less than its inner child {0} at 2\n";
      "  [cost-sanitizer] cost: hash join at {0,1,2} costs 0.5, less than its inner child {2} at 2\n";
      "16 checks, 1 violations:\n";
      "  [query-graph-lint] duppred: duplicate filter predicate on t1: id > 3\n";
    ]
  in
  Alcotest.(check string) "reports" (String.concat "" expected)
    (String.concat ""
       [
         report (Verify.check_plan g good);
         report (Verify.check_plan g dup);
         report (Verify.check_estimates g blowup);
         report (Verify.check_costs env forgetful good);
         report (Verify.check_graph (fst (duplicate_predicate_graphs ())));
       ])

(* ------------------------------------------------------------------ *)
(* Enumerator / harness integration                                    *)

let test_ensure_plan_raises () =
  let _, g = chain_graph () in
  let s1 = Plan.scan 1 in
  let dup =
    {
      Plan.op =
        Plan.Join
          {
            algo = Plan.Hash_join;
            outer = Plan.join Plan.Hash_join ~outer:(Plan.scan 0) ~inner:s1;
            inner = s1;
          };
      set = Bitset.of_list [ 0; 1; 2 ];
    }
  in
  match Verify.ensure_plan ~what:"star" g dup with
  | () -> Alcotest.fail "malformed plan accepted"
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        (Printf.sprintf "message is actionable: %s" msg)
        true
        (contains "appears 2 times" msg)

let test_harness_verifies_choices () =
  let h =
    Experiments.Harness.create ~scale:0.0004
      ~queries:[ Workload.Job.find "1a" ] ()
  in
  let qctx = Experiments.Harness.find h "1a" in
  let est = Experiments.Harness.estimator h qctx "PostgreSQL" in
  let model = Cost.Cost_model.cmm in
  Atomic.set Experiments.Harness.debug_verify true;
  Fun.protect
    ~finally:(fun () -> Atomic.set Experiments.Harness.debug_verify false)
    (fun () ->
      (* The real pipeline passes the full sanitizer stack... *)
      let plan, _cost = Experiments.Harness.plan_with h qctx ~est ~model () in
      (* ...and a mutated winning plan is rejected with a diagnosis. *)
      let broken = { plan with Plan.set = Bitset.remove 0 plan.Plan.set } in
      match
        Experiments.Harness.verify_choice h qctx ~est ~model
          ~shape:Planner.Search.Any_shape (broken, 0.0)
      with
      | () -> Alcotest.fail "mutated plan accepted"
      | exception Invalid_argument msg ->
          Alcotest.(check bool)
            (Printf.sprintf "mentions coverage: %s" msg)
            true (contains "covers" msg))

let suite =
  [
    check_all_accepts_pipeline;
    system_estimators_accepted;
    Alcotest.test_case "rejects duplicate relation" `Quick test_rejects_duplicate_relation;
    Alcotest.test_case "rejects cross product" `Quick test_rejects_cross_product;
    Alcotest.test_case "rejects incomplete plan" `Quick test_rejects_incomplete_plan;
    Alcotest.test_case "rejects composite INL inner" `Quick test_rejects_inl_composite_inner;
    Alcotest.test_case "rejects shape violation" `Quick test_rejects_shape_violation;
    Alcotest.test_case "rejects NaN/negative/Inf estimates" `Quick test_rejects_bad_estimates;
    Alcotest.test_case "rejects inclusion blow-up" `Quick test_rejects_inclusion_blowup;
    Alcotest.test_case "PK bound on true cardinalities" `Quick test_pk_bound_on_truth;
    Alcotest.test_case "q-error bookkeeping" `Quick test_q_error_checked;
    models_accept_dp_plans;
    Alcotest.test_case "rejects broken cost model" `Quick test_rejects_broken_cost_model;
    dp_dominates_heuristics;
    Alcotest.test_case "differential rejects suboptimal DP" `Quick test_differential_rejects_suboptimal_dp;
    lint_accepts_micro_graphs;
    Alcotest.test_case "lint rejects bad edges" `Quick test_lint_rejects_duplicate_edge;
    Alcotest.test_case "lint rejects duplicate predicates" `Quick
      test_lint_rejects_duplicate_predicate;
    Alcotest.test_case "reports pinned" `Quick test_reports_pinned;
    Alcotest.test_case "ensure_plan raises on malformed plans" `Quick test_ensure_plan_raises;
    Alcotest.test_case "harness debug verify" `Quick test_harness_verifies_choices;
  ]
