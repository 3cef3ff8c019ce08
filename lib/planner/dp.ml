module Bitset = Util.Bitset
module QG = Query.Query_graph

(* The one DP over connected subsets, optionally seeded with
   already-materialized fragments (re-optimization restarts). The table
   is indexed by the ordinals of [QG.connected_subsets]: subsets are
   processed in that order (by size, then mask), and each one visits
   only its valid splits ([QG.iter_splits]), outer half descending — the
   order in which plain submask enumeration meets them. A split replaces
   the best so far only when strictly cheaper, so the earliest of
   equal-cost splits wins.

   Each entry's cardinality is fetched once, on first use: a subset's
   own when its first admissible split is costed, then the outer's, then
   the inner's. That is the order in which per-join costing first asks
   for them, which matters for estimators that draw a table's sample on
   its first touch.

   A seed's subgraph enters the table atomically: no singleton inside it
   is seeded, so any subset that overlaps a fragment without containing
   it whole has no constructible split and never enters the table — the
   fragment behaves exactly like a base relation whose scan plan is the
   fragment's plan at the seed's (sunk) cost. *)
let build_table_seeded (t : Search.t) ~seeds =
  let graph = t.Search.env.Cost.Cost_model.graph in
  let n = QG.n_relations graph in
  let subsets = QG.connected_subsets graph in
  let m = Array.length subsets in
  let entries : (Plan.t * float) option array = Array.make m None in
  let cards = Array.make m 0.0 and fetched = Array.make m false in
  let card o =
    if not fetched.(o) then begin
      cards.(o) <- t.Search.env.Cost.Cost_model.card subsets.(o);
      fetched.(o) <- true
    end;
    cards.(o)
  in
  let covered =
    List.fold_left
      (fun acc ((p : Plan.t), _) ->
        if not (Bitset.disjoint acc p.Plan.set) then
          invalid_arg "Dp.build_table_seeded: overlapping seed fragments";
        Bitset.union acc p.Plan.set)
      Bitset.empty seeds
  in
  List.iter
    (fun ((p : Plan.t), cost) ->
      match QG.subset_ordinal graph p.Plan.set with
      | Some o -> entries.(o) <- Some (p, cost)
      | None -> invalid_arg "Dp.build_table_seeded: seed fragment is not connected")
    seeds;
  for r = 0 to n - 1 do
    if not (Bitset.mem r covered) then entries.(r) <- Some (Search.scan_entry t r)
  done;
  for o = n to m - 1 do
    if entries.(o) = None then begin
      let best = ref None and best_cost = ref 0.0 in
      QG.iter_splits graph o (fun o1 o2 ->
          match (entries.(o1), entries.(o2)) with
          | Some (outer, outer_cost), Some (inner, inner_cost)
            when Search.shape_allows t ~outer ~inner ->
              let out_card = card o in
              let outer_card = card o1 in
              let inner_card = card o2 in
              let algo, cost =
                Search.cheapest_algo t ~outer ~inner ~outer_cost ~inner_cost ~out_card
                  ~outer_card ~inner_card
              in
              if !best = None || not (!best_cost <= cost) then begin
                best := Some (algo, outer, inner);
                best_cost := cost
              end
          | _ -> ());
      Option.iter
        (fun (algo, outer, inner) ->
          entries.(o) <- Some (Plan.join algo ~outer ~inner, !best_cost))
        !best
    end
  done;
  entries

let optimize_seeded t ~seeds =
  let graph = t.Search.env.Cost.Cost_model.graph in
  let entries = build_table_seeded t ~seeds in
  match entries.(Array.length entries - 1) with
  | Some entry -> entry
  | None ->
      invalid_arg
        (Printf.sprintf "Dp.optimize: no plan found for query %s" (QG.name graph))

let optimize t = optimize_seeded t ~seeds:[]

let optimize_all_subsets t = build_table_seeded t ~seeds:[]
