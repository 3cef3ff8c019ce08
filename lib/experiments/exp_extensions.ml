module QG = Query.Query_graph
module Bitset = Util.Bitset

(* ------------------------------------------------------------------ *)
(* Extension 1: join sampling                                          *)

let join_sampling (h : Harness.t) =
  let sample = Cardest.Join_sample.create h.Harness.db in
  let max_joins = 6 in
  let collect make_est =
    let by_joins = Array.make (max_joins + 1) [] in
    (* Per-query error lists compute in parallel; the serial replay in
       query order reproduces the original bin push order. *)
    let per_query =
      Harness.par_map h
        (fun (q : Harness.qctx) ->
          let est = make_est q in
          let tc = Harness.truth q in
          Array.to_list (QG.connected_subsets q.Harness.graph)
          |> List.filter_map (fun s ->
                 let joins = Bitset.cardinal s - 1 in
                 if joins > max_joins then None
                 else
                   Some
                     ( joins,
                       Util.Stat.signed_error
                         ~estimate:(Util.Stat.floored (est.Cardest.Estimator.subset s))
                         ~truth:(Util.Stat.floored (Cardest.True_card.card tc s)) )))
        h.Harness.queries
    in
    Array.iter
      (List.iter
         (fun (joins, err) -> by_joins.(joins) <- err :: by_joins.(joins)))
      per_query;
    by_joins
  in
  let pg = collect (fun q -> Harness.estimator h q "PostgreSQL") in
  let js =
    collect (fun q -> Cardest.Join_sample.estimator sample q.Harness.graph)
  in
  let row label data joins =
    let e = Array.of_list data.(joins) in
    if Array.length e = 0 then [ label; string_of_int joins; "-"; "-" ]
    else
      let wrong =
        Array.fold_left (fun a x -> if x >= 10.0 || x <= 0.1 then a + 1 else a) 0 e
      in
      [
        label;
        string_of_int joins;
        Util.Render.float_cell (Util.Stat.median e);
        Util.Render.percent_cell (Util.Stat.fraction wrong (Array.length e));
      ]
  in
  Util.Render.table
    ~title:
      "Extension 1: join sampling (10% sample of fact tables) vs PostgreSQL's\n\
       per-attribute statistics. Median signed error (est/true) by join count"
    ~header:[ "estimator"; "joins"; "median"; "frac off >=10x" ]
    (List.concat
       (List.init (max_joins + 1) (fun joins ->
            [ row "PostgreSQL" pg joins; row "join sampling" js joins ])))

(* ------------------------------------------------------------------ *)
(* Extension 3: the q-error plan-quality bound, checked empirically    *)

let qerror_bound (h : Harness.t) =
  (* The theorem's setting: C_mm over hash joins, no index access paths.
     For every query: the worst subexpression q-error of PostgreSQL's
     estimates, the actual cost ratio of the estimate-chosen plan, and
     the guaranteed q^4 bound. *)
  Harness.with_index_config h Storage.Database.No_indexes (fun () ->
      let rows = ref [] in
      let holds = ref 0 and total = ref 0 in
      let per_query =
        Harness.par_map h
          (fun (q : Harness.qctx) ->
            let est = Harness.estimator h q "PostgreSQL" in
            let truth = Harness.truth q in
            let qmax = Cardest.Qbound.worst_q ~truth est q.Harness.graph in
            let plan, _ =
              Harness.plan_with h q ~est ~model:Cost.Cost_model.cmm ()
            in
            let oracle = Harness.estimator h q "true" in
            let _, optimal =
              Harness.plan_with h q ~est:oracle ~model:Cost.Cost_model.cmm ()
            in
            let actual = Harness.true_cost h q plan /. Float.max 1e-9 optimal in
            let bound = Cardest.Qbound.cost_ratio_bound ~q:qmax in
            (qmax, actual, bound))
          h.Harness.queries
      in
      Array.iter
        (fun (qmax, actual, bound) ->
          incr total;
          if actual <= bound +. 1e-6 then incr holds;
          rows := (qmax, actual, bound) :: !rows)
        per_query;
      let actuals = Array.of_list (List.map (fun (_, a, _) -> a) !rows) in
      let slack =
        Array.of_list (List.map (fun (_, a, b) -> b /. Float.max 1.0 a) !rows)
      in
      Util.Render.table
        ~title:
          "Extension 3: the q-error plan-quality guarantee (paper ref [30]):\n\
           chosen-plan cost <= q^4 x optimal when all estimates are within q.\n\
           Cmm, hash joins, no indexes, PostgreSQL estimates"
        ~header:[ "metric"; "value" ]
        [
          [ "queries where the bound holds";
            Printf.sprintf "%d / %d" !holds !total ];
          [ "median actual cost ratio";
            Util.Render.float_cell (Util.Stat.median actuals) ];
          [ "max actual cost ratio";
            Util.Render.float_cell (Util.Stat.maximum actuals) ];
          [ "median bound slack (bound/actual)";
            Util.Render.float_cell (Util.Stat.median slack) ];
        ])

let render h = join_sampling h ^ "\n" ^ qerror_bound h
