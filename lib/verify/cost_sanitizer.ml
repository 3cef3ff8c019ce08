(* Analysis of cost annotations. Costs are recomputed bottom-up with the
   model under scrutiny and each node is checked:

   - finiteness and sign: every scan and join cost is finite and
     non-negative;
   - monotonicity in the subtree: a join costs at least as much as the
     pipeline feeding it. All three models charge the outer child's full
     cost at every join; hash, merge and nested-loop joins additionally
     materialize/build from the inner child, so they must also dominate
     its cost. Index-NL joins are exempt from the inner bound — they
     replace the inner scan with index lookups and legitimately cost
     less than scanning the inner relation;
   - agreement: if the enumerator reported a total cost for the plan, it
     must match the model's recomputation to relative tolerance (a
     mismatch means the search accumulated different numbers than the
     model defines — a classic source of silently wrong plan choices);
   - differential optimality: under one estimate function and cost
     model, exhaustive DP is optimal over the space that contains every
     GOO and QuickPick plan, so its cost may never exceed theirs. *)

module Bitset = Util.Bitset

let pass = "cost-sanitizer"

let rel_tolerance = 1e-6

let is_bad x = Float.is_nan x || x = Float.infinity || x = Float.neg_infinity

let close a b =
  Float.abs (a -. b) <= rel_tolerance *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let check ?(subject = "cost") ?reported_cost (env : Cost.Cost_model.env)
    (model : Cost.Cost_model.t) plan =
  let c = Violation.collector ~pass ~subject in
  let pp_set () s = Format.asprintf "%a" Bitset.pp s in
  let node_ok what set cost =
    Violation.check c (not (is_bad cost)) "%s cost for %a is %h" what pp_set set
      cost;
    Violation.check c (is_bad cost || cost >= 0.0)
      "%s cost for %a is negative: %g" what pp_set set cost
  in
  let rec walk (node : Plan.t) =
    match node.Plan.op with
    | Plan.Scan rel ->
        let cost = model.Cost.Cost_model.scan_cost env rel in
        node_ok "scan" node.Plan.set cost;
        cost
    | Plan.Join { algo; outer; inner } ->
        let outer_cost = walk outer in
        let inner_cost = walk inner in
        let cost =
          Cost.Cost_model.join_cost_from_env model env algo ~outer ~inner ~outer_cost
            ~inner_cost
        in
        node_ok (Plan.algo_to_string algo) node.Plan.set cost;
        let slack = 1.0 +. rel_tolerance in
        Violation.check c
          (is_bad cost || cost *. slack >= outer_cost)
          "%s at %a costs %g, less than its outer child %a at %g"
          (Plan.algo_to_string algo) pp_set node.Plan.set cost
          pp_set outer.Plan.set outer_cost;
        (if algo <> Plan.Index_nl_join then
           Violation.check c
             (is_bad cost || cost *. slack >= inner_cost)
             "%s at %a costs %g, less than its inner child %a at %g"
             (Plan.algo_to_string algo) pp_set node.Plan.set cost
             pp_set inner.Plan.set inner_cost);
        cost
  in
  let total = walk plan in
  (match reported_cost with
  | None -> ()
  | Some reported ->
      Violation.check c
        (is_bad total || close total reported)
        "enumerator reported cost %g but model %s recomputes %g" reported
        model.Cost.Cost_model.name total);
  Violation.result c

(* DP is exhaustive over connected complement pairs, the space every GOO
   and QuickPick plan lives in, so under the same estimates, cost model
   and shape restriction its cost is a lower bound for theirs. *)
let differential ?(subject = "cost") ~dp:(dp_name, dp_cost) rivals =
  let c = Violation.collector ~pass ~subject in
  List.iter
    (fun (name, cost) ->
      Violation.check c
        (is_bad dp_cost || is_bad cost
        || dp_cost <= cost *. (1.0 +. rel_tolerance))
        "%s found cost %g, cheaper than exhaustive %s at %g — DP missed part \
         of its search space"
        name cost dp_name dp_cost)
    rivals;
  Violation.result c
