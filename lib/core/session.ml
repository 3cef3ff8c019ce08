module QG = Query.Query_graph

type query = Pipeline.query = {
  name : string;
  sql : string;
  graph : QG.t;
  projections : (int * int) list;
}

type enumerator = Registry.enumerator =
  | Exhaustive_dp
  | Quickpick of int
  | Greedy_operator_ordering
  | Simpli_squared

type plan_choice = Pipeline.plan_choice = {
  plan : Plan.t;
  estimated_cost : float;
  estimator : Cardest.Estimator.t;
  cost_model : Cost.Cost_model.t;
}

type t = Pipeline.t

let of_database db = Pipeline.create db

let create ?(seed = 42) ?(scale = Datagen.Imdb_gen.reference_scale) () =
  of_database (Datagen.Imdb_gen.generate ~seed ~scale ())

let db = Pipeline.db

let pipeline t = t

let set_physical_design t config =
  Storage.Database.set_index_config (Pipeline.db t) config

let sql t ?(name = "adhoc") text = Pipeline.bind t ~name text

let job t name =
  let q = Workload.Job.find name in
  sql t ~name q.Workload.Job.sql

let true_cardinalities = Pipeline.truth

let estimator = Pipeline.estimator

let optimize t ?estimator ?cost_model ?enumerator ?shape ?allow_nl query =
  Pipeline.plan t ?estimator ?cost_model ?enumerator ?shape ?allow_nl query

let explain t query choice =
  let truth = Pipeline.truth_if_computed t query in
  let annot (node : Plan.t) =
    let estimate = choice.estimator.Cardest.Estimator.subset node.Plan.set in
    match truth with
    | Some tc ->
        Printf.sprintf "  [est %.0f, true %.0f]" estimate
          (Cardest.True_card.card tc node.Plan.set)
    | None -> Printf.sprintf "  [est %.0f]" estimate
  in
  Format.asprintf "%s, estimated cost %.0f (%s estimates, %s cost model)@.%a"
    query.name choice.estimated_cost choice.estimator.Cardest.Estimator.name
    choice.cost_model.Cost.Cost_model.name
    (Plan.pp ~annot query.graph)
    choice.plan

let run t ?(engine = Exec.Engine_config.robust) ?pool ?cache query choice =
  Exec.Executor.run ~db:(Pipeline.db t) ~graph:query.graph ~config:engine
    ~size_est:choice.estimator.Cardest.Estimator.subset ?pool ?cache
    ~projections:query.projections choice.plan

let explain_analyze t ?(engine = Exec.Engine_config.robust) ?pool query choice =
  ignore (true_cardinalities t query);
  let result = run t ~engine ?pool query choice in
  let tree = explain t query choice in
  let summary =
    if result.Exec.Executor.timed_out then
      Printf.sprintf "TIMED OUT after %.0f simulated ms (%d work units)\n"
        result.Exec.Executor.runtime_ms result.Exec.Executor.work
    else
      Printf.sprintf "%d rows in %.1f simulated ms (%d work units, engine: %s)\n"
        result.Exec.Executor.rows result.Exec.Executor.runtime_ms
        result.Exec.Executor.work engine.Exec.Engine_config.name
  in
  (tree ^ summary, result)

let plan_dot t query choice =
  let truth = Pipeline.truth_if_computed t query in
  let annot (node : Plan.t) =
    let estimate = choice.estimator.Cardest.Estimator.subset node.Plan.set in
    match truth with
    | Some tc ->
        Printf.sprintf "\\nest %.0f / true %.0f" estimate
          (Cardest.True_card.card tc node.Plan.set)
    | None -> Printf.sprintf "\\nest %.0f" estimate
  in
  Plan.to_dot ~annot query.graph choice.plan
