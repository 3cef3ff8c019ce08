(* Tests for the cost models: composition rules, the Cmm formulas from
   the paper, and relative behaviour of the three models. *)

module Bitset = Util.Bitset
module QG = Query.Query_graph

let env_of graph db card = { Cost.Cost_model.graph; db; card }

let fixture () =
  let prng = Util.Prng.create 31 in
  let db = Support.micro_db prng ~tables:3 ~rows:50 in
  let g = Support.micro_query prng db ~relations:3 ~extra_edges:0 in
  (db, g)

let test_by_name () =
  Alcotest.(check bool) "postgres" true (Cost.Cost_model.by_name "PostgreSQL" <> None);
  Alcotest.(check bool) "tuned" true (Cost.Cost_model.by_name "tuned" <> None);
  Alcotest.(check bool) "cmm" true (Cost.Cost_model.by_name "Cmm" <> None);
  Alcotest.(check bool) "unknown" true (Cost.Cost_model.by_name "nope" = None)

let test_cmm_scan () =
  let db, g = fixture () in
  let env = env_of g db (fun _ -> 10.0) in
  (* tau * |R|: micro tables have 50 rows. *)
  Alcotest.(check (Alcotest.float 1e-9)) "tau * rows"
    (Cost.Cost_model.cmm_tau *. 50.0)
    (Cost.Cost_model.cmm.Cost.Cost_model.scan_cost env 0)

let test_cmm_hash_join () =
  let db, g = fixture () in
  let card s = if Bitset.cardinal s = 1 then 50.0 else 123.0 in
  let env = env_of g db card in
  let e = List.hd (QG.edges g) in
  let outer = Plan.scan e.QG.left and inner = Plan.scan e.QG.right in
  let cost =
    Cost.Cost_model.join_cost_from_env Cost.Cost_model.cmm env Plan.Hash_join ~outer ~inner
      ~outer_cost:10.0 ~inner_cost:20.0
  in
  Alcotest.(check (Alcotest.float 1e-9)) "|T| + C1 + C2" (123.0 +. 10.0 +. 20.0) cost

let test_cmm_merge_join () =
  let db, g = fixture () in
  let card s = if Bitset.cardinal s = 1 then 64.0 else 100.0 in
  let env = env_of g db card in
  let e = List.hd (QG.edges g) in
  let outer = Plan.scan e.QG.left and inner = Plan.scan e.QG.right in
  let cost =
    Cost.Cost_model.join_cost_from_env Cost.Cost_model.cmm env Plan.Merge_join ~outer
      ~inner ~outer_cost:0.0 ~inner_cost:0.0
  in
  (* 2 * (64 log2 64) + 64 + 64 + 100 = 768 + 228 *)
  Alcotest.(check (Alcotest.float 1e-6)) "sorts + merge + output"
    ((2.0 *. 64.0 *. 6.0) +. 64.0 +. 64.0 +. 100.0)
    cost;
  (* With equal cards, hashing must look cheaper than sorting. *)
  let hash =
    Cost.Cost_model.join_cost_from_env Cost.Cost_model.cmm env Plan.Hash_join ~outer
      ~inner ~outer_cost:0.0 ~inner_cost:0.0
  in
  Alcotest.(check bool) "hash cheaper" true (hash < cost)

let test_cmm_nl_join () =
  let db, g = fixture () in
  let card s = if Bitset.cardinal s = 1 then 50.0 else 100.0 in
  let env = env_of g db card in
  let e = List.hd (QG.edges g) in
  let outer = Plan.scan e.QG.left and inner = Plan.scan e.QG.right in
  let cost =
    Cost.Cost_model.join_cost_from_env Cost.Cost_model.cmm env Plan.Nl_join ~outer ~inner
      ~outer_cost:0.0 ~inner_cost:0.0
  in
  Alcotest.(check (Alcotest.float 1e-9)) "|T1||T2| + |T|" ((50.0 *. 50.0) +. 100.0) cost

let test_cmm_inl_join () =
  let db, g = fixture () in
  (* Unfiltered inner: selectivity 1, so lookups = max(out, |T1|). *)
  let card s = if Bitset.cardinal s = 1 then 50.0 else 80.0 in
  let env = env_of g db card in
  let e = List.hd (QG.edges g) in
  let outer = Plan.scan e.QG.left and inner = Plan.scan e.QG.right in
  let cost =
    Cost.Cost_model.join_cost_from_env Cost.Cost_model.cmm env Plan.Index_nl_join ~outer
      ~inner ~outer_cost:7.0 ~inner_cost:999.0
  in
  (* Inner cost is replaced by lookups: 7 + lambda * max(80, 50). *)
  Alcotest.(check (Alcotest.float 1e-9)) "INL formula"
    (7.0 +. (Cost.Cost_model.cmm_lambda *. 80.0))
    cost

let test_plan_cost_composition () =
  let db, g = fixture () in
  let env = env_of g db (fun _ -> 10.0) in
  let e = List.hd (QG.edges g) in
  let outer = Plan.scan e.QG.left and inner = Plan.scan e.QG.right in
  let join = Plan.join Plan.Hash_join ~outer ~inner in
  let model = Cost.Cost_model.cmm in
  let manual =
    Cost.Cost_model.join_cost_from_env model env Plan.Hash_join ~outer ~inner
      ~outer_cost:(model.Cost.Cost_model.scan_cost env e.QG.left)
      ~inner_cost:(model.Cost.Cost_model.scan_cost env e.QG.right)
  in
  Alcotest.(check (Alcotest.float 1e-9)) "plan_cost = composed"
    manual
    (Cost.Cost_model.plan_cost model env join)

let test_joining_costs_more_than_children () =
  let db, g = fixture () in
  let env = env_of g db (fun _ -> 25.0) in
  let e = List.hd (QG.edges g) in
  let outer = Plan.scan e.QG.left and inner = Plan.scan e.QG.right in
  let join = Plan.join Plan.Hash_join ~outer ~inner in
  List.iter
    (fun model ->
      let child_costs =
        Cost.Cost_model.plan_cost model env outer
        +. Cost.Cost_model.plan_cost model env inner
      in
      Alcotest.(check bool)
        (model.Cost.Cost_model.name ^ " join > children")
        true
        (Cost.Cost_model.plan_cost model env join > child_costs))
    [ Cost.Cost_model.postgres; Cost.Cost_model.tuned; Cost.Cost_model.cmm ]

let test_tuned_weights_cpu_higher () =
  let db, g = fixture () in
  let env = env_of g db (fun _ -> 100.0) in
  (* Same scan: tuned multiplies CPU weights by 50, so the scan gets more
     expensive while page costs stay put. *)
  let standard = Cost.Cost_model.postgres.Cost.Cost_model.scan_cost env 0 in
  let tuned = Cost.Cost_model.tuned.Cost.Cost_model.scan_cost env 0 in
  Alcotest.(check bool) "tuned scan > standard scan" true (tuned > standard)

let test_costs_monotone_in_cardinality () =
  let db, g = fixture () in
  let e = List.hd (QG.edges g) in
  let outer = Plan.scan e.QG.left and inner = Plan.scan e.QG.right in
  let cost out_card =
    let card s = if Bitset.cardinal s = 1 then 50.0 else out_card in
    let env = env_of g db card in
    Cost.Cost_model.join_cost_from_env Cost.Cost_model.cmm env Plan.Hash_join ~outer ~inner
      ~outer_cost:0.0 ~inner_cost:0.0
  in
  Alcotest.(check bool) "bigger output costs more" true (cost 1e6 > cost 10.0)

let suite =
  [
    Alcotest.test_case "by_name" `Quick test_by_name;
    Alcotest.test_case "cmm scan" `Quick test_cmm_scan;
    Alcotest.test_case "cmm hash join" `Quick test_cmm_hash_join;
    Alcotest.test_case "cmm merge join" `Quick test_cmm_merge_join;
    Alcotest.test_case "cmm NL join" `Quick test_cmm_nl_join;
    Alcotest.test_case "cmm INL join" `Quick test_cmm_inl_join;
    Alcotest.test_case "plan cost composition" `Quick test_plan_cost_composition;
    Alcotest.test_case "join > children" `Quick test_joining_costs_more_than_children;
    Alcotest.test_case "tuned CPU weights" `Quick test_tuned_weights_cpu_higher;
    Alcotest.test_case "monotone in cardinality" `Quick test_costs_monotone_in_cardinality;
  ]
