(* Integration tests: the Session facade end-to-end, the experiment
   harness on a miniature workload, and cross-component consistency
   (optimizer plans execute to the exact true cardinality). *)

module QG = Query.Query_graph

(* One small session shared by the facade tests. *)
let session = lazy (Core.Session.create ~seed:3 ~scale:0.0006 ())

let test_session_job_roundtrip () =
  let s = Lazy.force session in
  let q = Core.Session.job s "1a" in
  let choice = Core.Session.optimize s q in
  (match Plan.validate q.Core.Session.graph choice.Core.Session.plan with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid plan: %s" e);
  let result = Core.Session.run s q choice in
  Alcotest.(check bool) "finished" true (not result.Exec.Executor.timed_out);
  (* The executor's row count must equal the exact cardinality. *)
  let tc = Core.Session.true_cardinalities s q in
  Alcotest.(check int) "rows = truth"
    (int_of_float (Cardest.True_card.card tc (QG.full_set q.Core.Session.graph)))
    result.Exec.Executor.rows

let test_session_adhoc_sql () =
  let s = Lazy.force session in
  let q =
    Core.Session.sql s
      "SELECT MIN(n.name) FROM name AS n, cast_info AS ci, title AS t WHERE \
       n.id = ci.person_id AND ci.movie_id = t.id AND n.gender = 'f'"
  in
  let choice = Core.Session.optimize s ~estimator:"HyPer" ~cost_model:"Cmm" q in
  let explain = Core.Session.explain s q choice in
  Alcotest.(check bool) "explain mentions estimator" true
    (let needle = "HyPer" in
     let n = String.length needle in
     let found = ref false in
     String.iteri
       (fun i _ ->
         if i + n <= String.length explain && String.sub explain i n = needle then
           found := true)
       explain;
     !found)

let test_session_enumerators_agree_on_rows () =
  let s = Lazy.force session in
  let q = Core.Session.job s "2b" in
  let results =
    List.map
      (fun enumerator ->
        let choice = Core.Session.optimize s ~enumerator ~cost_model:"Cmm" q in
        (Core.Session.run s q choice).Exec.Executor.rows)
      [
        Core.Session.Exhaustive_dp;
        Core.Session.Quickpick 20;
        Core.Session.Greedy_operator_ordering;
      ]
  in
  match results with
  | [ a; b; c ] ->
      Alcotest.(check int) "dp = quickpick" a b;
      Alcotest.(check int) "dp = goo" a c
  | _ -> assert false

let test_session_physical_designs () =
  let s = Lazy.force session in
  let q = Core.Session.job s "3a" in
  ignore (Core.Session.true_cardinalities s q);
  let run config =
    Core.Session.set_physical_design s config;
    let choice = Core.Session.optimize s ~estimator:"true" ~cost_model:"Cmm" q in
    (Core.Session.run s q choice).Exec.Executor.rows
  in
  let a = run Storage.Database.No_indexes in
  let b = run Storage.Database.Pk_only in
  let c = run Storage.Database.Pk_fk in
  Core.Session.set_physical_design s Storage.Database.Pk_only;
  Alcotest.(check int) "no-index rows = pk rows" a b;
  Alcotest.(check int) "pk rows = pkfk rows" b c

let test_session_explain_analyze () =
  let s = Lazy.force session in
  let q = Core.Session.job s "1b" in
  let choice = Core.Session.optimize s q in
  let out, result = Core.Session.explain_analyze s q choice in
  let has needle =
    let n = String.length needle in
    let found = ref false in
    String.iteri
      (fun i _ ->
        if i + n <= String.length out && String.sub out i n = needle then
          found := true)
      out;
    !found
  in
  Alcotest.(check bool) "has true cards" true (has "true");
  Alcotest.(check bool) "has runtime" true (has "simulated ms");
  (* The summary describes the very run that is returned. *)
  Alcotest.(check bool) "rendered row count is the result's" true
    (has (Printf.sprintf "\n%d rows in " result.Exec.Executor.rows))

let test_session_plan_dot () =
  let s = Lazy.force session in
  let q = Core.Session.job s "1a" in
  let choice = Core.Session.optimize s q in
  let dot = Core.Session.plan_dot s q choice in
  Alcotest.(check bool) "digraph" true
    (String.length dot > 10 && String.sub dot 0 7 = "digraph");
  (* One node per plan operator. *)
  let nodes = ref 0 in
  String.iteri
    (fun i c ->
      if c = '[' && i > 0 && dot.[i - 1] = ' ' then incr nodes)
    dot;
  Alcotest.(check bool) "several nodes" true (!nodes >= 5)

let test_session_unknown_names () =
  let s = Lazy.force session in
  let q = Core.Session.job s "1a" in
  (try
     ignore (Core.Session.optimize s ~cost_model:"nope" q);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  try
    ignore (Core.Session.optimize s ~estimator:"nope" q);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

(* --- Experiment harness on a miniature workload ------------------------------ *)

let mini_queries =
  List.filter
    (fun q -> List.mem q.Workload.Job.name [ "1a"; "2b"; "3a"; "6c" ])
    Workload.Job.all

let harness = lazy (Experiments.Harness.create ~seed:3 ~scale:0.0006 ~queries:mini_queries ())

let test_harness_table1_shape () =
  let h = Lazy.force harness in
  let rows = Experiments.Exp_table1.measure h in
  Alcotest.(check int) "five systems" 5 (List.length rows);
  List.iter
    (fun (r : Experiments.Exp_table1.row) ->
      Alcotest.(check bool) (r.system ^ " median >= 1") true (r.median >= 1.0);
      Alcotest.(check bool) "percentiles ordered" true
        (r.median <= r.p90 && r.p90 <= r.p95 && r.p95 <= r.max);
      Alcotest.(check bool) "selection count" true (r.selections > 0))
    rows

let test_harness_fig3_shape () =
  let h = Lazy.force harness in
  let data = Experiments.Exp_fig3.measure h ~max_joins:4 in
  Alcotest.(check int) "five systems" 5 (List.length data);
  List.iter
    (fun (_, cells) ->
      Alcotest.(check int) "5 join levels" 5 (List.length cells);
      List.iter
        (fun (c : Experiments.Exp_fig3.cell) ->
          Alcotest.(check bool) "fractions in range" true
            (c.frac_wrong_10x >= 0.0 && c.frac_wrong_10x <= 1.0))
        cells)
    data

let test_harness_slowdown_finite_or_inf () =
  let h = Lazy.force harness in
  Experiments.Harness.with_index_config h Storage.Database.Pk_only (fun () ->
      Array.iter
        (fun q ->
          let est = Experiments.Harness.estimator h q "PostgreSQL" in
          let slowdown =
            Experiments.Harness.slowdown_vs_optimal h q ~est
              ~model:Cost.Cost_model.postgres ~engine:Exec.Engine_config.robust
          in
          Alcotest.(check bool) "positive" true (slowdown > 0.0))
        h.Experiments.Harness.queries)

let test_harness_with_index_config_restores () =
  let h = Lazy.force harness in
  let before = Storage.Database.index_config h.Experiments.Harness.db in
  (try
     Experiments.Harness.with_index_config h Storage.Database.Pk_fk (fun () ->
         failwith "boom")
   with Failure _ -> ());
  Alcotest.(check bool) "restored after exception" true
    (Storage.Database.index_config h.Experiments.Harness.db = before)

let test_harness_table2_ordering () =
  let h = Lazy.force harness in
  let rows = Experiments.Exp_table2.measure h in
  (* zig-zag can never beat bushy, right-deep can never beat zig-zag (on
     medians over the same queries). *)
  List.iter
    (fun (r : Experiments.Exp_table2.row) ->
      Alcotest.(check bool) (r.shape ^ " median >= 1") true (r.median >= 1.0 -. 1e-9))
    rows

let test_harness_table3_dp_optimal_under_truth () =
  let h = Lazy.force harness in
  let rows = Experiments.Exp_table3.measure h in
  List.iter
    (fun (r : Experiments.Exp_table3.row) ->
      if r.algorithm = "Dynamic Programming" && r.cards = "true cardinalities" then begin
        Alcotest.(check (Alcotest.float 1e-6)) "median exactly 1" 1.0 r.median;
        Alcotest.(check (Alcotest.float 1e-6)) "max exactly 1" 1.0 r.max
      end
      else
        Alcotest.(check bool)
          (r.algorithm ^ "/" ^ r.cards ^ " >= 1")
          true (r.median >= 1.0 -. 1e-9))
    rows

let suite =
  [
    Alcotest.test_case "session JOB roundtrip" `Quick test_session_job_roundtrip;
    Alcotest.test_case "session ad-hoc SQL" `Quick test_session_adhoc_sql;
    Alcotest.test_case "session enumerators agree" `Quick
      test_session_enumerators_agree_on_rows;
    Alcotest.test_case "session physical designs" `Quick test_session_physical_designs;
    Alcotest.test_case "session unknown names" `Quick test_session_unknown_names;
    Alcotest.test_case "session explain analyze" `Quick test_session_explain_analyze;
    Alcotest.test_case "session plan dot" `Quick test_session_plan_dot;
    Alcotest.test_case "harness table 1" `Quick test_harness_table1_shape;
    Alcotest.test_case "harness figure 3" `Quick test_harness_fig3_shape;
    Alcotest.test_case "harness slowdowns" `Quick test_harness_slowdown_finite_or_inf;
    Alcotest.test_case "harness config restore" `Quick
      test_harness_with_index_config_restores;
    Alcotest.test_case "harness table 2" `Quick test_harness_table2_ordering;
    Alcotest.test_case "harness table 3" `Quick test_harness_table3_dp_optimal_under_truth;
  ]
