(* Structural analysis of physical plans. Every plan an enumerator emits
   must satisfy, independent of estimates and costs:

   - relation coverage: the root covers exactly the query's relations,
     each relation exactly once, and every scan names a known relation;
   - set consistency: each node's cached [set] equals the union of the
     scans beneath it (guards hand-built or mutated plan records);
   - disjointness: the two children of every join are disjoint;
   - connectivity: every intermediate result is a connected subgraph of
     the query graph, and every join has at least one join predicate
     crossing its children (no undeclared cross products);
   - index-NL discipline: the inner of an index-NL join is a base
     relation (an index lookup needs a materialized index);
   - shape conformance: if the enumerator was restricted to a tree
     shape, the emitted plan actually lies in that class. *)

module Bitset = Util.Bitset
module QG = Query.Query_graph

let pass = "plan-sanitizer"

let shape_limit_to_string = function
  | Planner.Search.Any_shape -> "any"
  | Planner.Search.Only_left_deep -> "left-deep"
  | Planner.Search.Only_right_deep -> "right-deep"
  | Planner.Search.Only_zig_zag -> "zig-zag"

let shape_conforms limit plan =
  match (limit, Plan.shape plan) with
  | Planner.Search.Any_shape, _ -> true
  | Planner.Search.Only_left_deep, Plan.Left_deep -> true
  | Planner.Search.Only_right_deep, (Plan.Right_deep | Plan.Left_deep) ->
      (* A single join is reported left-deep but is also right-deep. *)
      Plan.join_count plan <= 1 || Plan.shape plan = Plan.Right_deep
  | Planner.Search.Only_zig_zag,
    (Plan.Left_deep | Plan.Right_deep | Plan.Zig_zag) ->
      true
  | _ -> false

let check ?(subject = "plan") ?shape graph plan =
  let c = Violation.collector ~pass ~subject in
  let n = QG.n_relations graph in
  let seen = Array.make n 0 in
  let pp_set () s = Format.asprintf "%a" Bitset.pp s in
  let rec walk (node : Plan.t) =
    (match node.Plan.op with
    | Plan.Scan r ->
        Violation.check c (r >= 0 && r < n)
          "scan of unknown relation %d (query has %d relations)" r n;
        if r >= 0 && r < n then seen.(r) <- seen.(r) + 1;
        Violation.check c (node.Plan.set = Bitset.singleton r)
          "scan of relation %d carries set %a instead of {%d}" r
          pp_set node.Plan.set r
    | Plan.Join { algo; outer; inner } ->
        Violation.check c (Bitset.disjoint outer.Plan.set inner.Plan.set)
          "join children overlap on %a" pp_set
          (Bitset.inter outer.Plan.set inner.Plan.set);
        Violation.check c
          (node.Plan.set = Bitset.union outer.Plan.set inner.Plan.set)
          "join node set %a is not the union of its children %a and %a"
          pp_set node.Plan.set pp_set outer.Plan.set pp_set inner.Plan.set;
        (if Bitset.disjoint outer.Plan.set inner.Plan.set then
           Violation.check c
             (QG.edges_between graph outer.Plan.set inner.Plan.set <> [])
             "cross product: no join predicate between %a and %a"
             pp_set outer.Plan.set pp_set inner.Plan.set);
        Violation.check c
          (QG.is_connected graph node.Plan.set)
          "intermediate %a is not a connected subgraph" pp_set node.Plan.set;
        Violation.check c
          (algo <> Plan.Index_nl_join || Plan.is_base inner)
          "index-NL inner %a is not a base relation" pp_set inner.Plan.set;
        walk outer;
        walk inner);
  in
  walk plan;
  Violation.check c (plan.Plan.set = QG.full_set graph)
    "plan covers %a instead of all %d relations" pp_set plan.Plan.set n;
  Array.iteri
    (fun r count ->
      Violation.check c (count <= 1) "relation %d (%s) appears %d times" r
        (QG.relation graph r).QG.alias count)
    seen;
  (match shape with
  | None -> ()
  | Some limit ->
      Violation.check c
        (shape_conforms limit plan)
        "plan shape is %s but the enumerator was restricted to %s"
        (Plan.shape_to_string (Plan.shape plan))
        (shape_limit_to_string limit));
  Violation.result c
