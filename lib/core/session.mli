(** The library's front door: a database session that ties together the
    whole optimizer architecture of the paper's Figure 1 — cardinality
    estimation, cost model, and plan-space enumeration — over the
    synthetic IMDB database, plus execution and cardinality injection:
    the ["true"] estimator injects every exact cardinality, and
    {!Reopt.Feedback.overlay} injects observed ones per subset.

    A session is a thin veneer over {!Pipeline}: every estimator and
    plan request goes through the component registry ({!Registry}) and
    the memoizing plan cache, so repeated optimizations of the same
    (query, estimator, cost model, shape) combination are free.

    {[
      let s = Session.create ~scale:0.2 () in
      let q = Session.job s "13d" in
      let choice = Session.optimize s q in
      print_string (Session.explain s q choice);
      let result = Session.run s q choice in
      Printf.printf "%d rows in %.1f ms\n"
        result.Exec.Executor.rows result.Exec.Executor.runtime_ms
    ]} *)

type t = Pipeline.t

type query = Pipeline.query = {
  name : string;
  sql : string;
  graph : Query.Query_graph.t;
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

val create : ?seed:int -> ?scale:float -> unit -> t
(** Generate the IMDB-like database and ANALYZE it. Defaults: seed 42,
    scale 1.0 (~325 k rows). *)

val of_database : Storage.Database.t -> t
(** Wrap an existing database (e.g. the TPC-H generator's). *)

val db : t -> Storage.Database.t

val pipeline : t -> Pipeline.t
(** The underlying pipeline (for cache statistics). *)

val set_physical_design : t -> Storage.Database.index_config -> unit
(** Choose between the paper's no-index / PK / PK+FK designs. Default:
    PK only. *)

val sql : t -> ?name:string -> string -> query
(** Parse and bind a query in the JOB SQL subset. Memoized on
    (name, text) through {!Pipeline.bind}, so a serving loop replaying
    the same statements binds each distinct one once. *)

val job : t -> string -> query
(** One of the 113 benchmark queries, by name (e.g. ["16d"]). *)

val estimator : t -> query -> string -> Cardest.Estimator.t
(** By registry name ({!Registry.estimators}): "PostgreSQL", "DBMS A",
    "DBMS B", "DBMS C", "HyPer", "PostgreSQL (true distinct)" and
    "true" (the exact oracle, computed on demand). Instances are cached
    per (query, system). Raises [Invalid_argument] with a registry
    error naming the valid alternatives on unknown names. *)

val true_cardinalities : t -> query -> Cardest.True_card.t
(** Exact cardinalities of every connected subexpression (cached). *)

val optimize :
  t ->
  ?estimator:string ->
  ?cost_model:string ->
  ?enumerator:enumerator ->
  ?shape:Planner.Search.shape_limit ->
  ?allow_nl:bool ->
  query ->
  plan_choice
(** Defaults: PostgreSQL estimates, the PostgreSQL-style cost model,
    exhaustive DP, bushy trees, no (non-index) nested-loop joins.
    Results are memoized in the session's plan cache, keyed by every
    parameter plus the current index configuration. *)

val explain : t -> query -> plan_choice -> string
(** Operator tree annotated with estimated and (if already computed)
    true cardinalities. *)

val run :
  t ->
  ?engine:Exec.Engine_config.t ->
  ?pool:Util.Domain_pool.t ->
  ?cache:Exec.Join_cache.t ->
  query ->
  plan_choice ->
  Exec.Executor.result
(** Execute under an engine configuration (default: the robust engine —
    no NL joins, resizing hash tables). [pool] turns on morsel-driven
    intra-query parallelism; [cache] turns on cross-query join-build
    recycling; results are byte-identical with or without either (see
    {!Exec.Executor.run}). *)

val explain_analyze :
  t ->
  ?engine:Exec.Engine_config.t ->
  ?pool:Util.Domain_pool.t ->
  query ->
  plan_choice ->
  string * Exec.Executor.result
(** EXPLAIN ANALYZE: execute once, then render the plan with estimated
    and exact cardinalities per operator plus a runtime summary. Returns
    the rendering and the result it describes, so a caller that also
    wants the answer (the MINs) need not run the query again. Computes
    the exact cardinalities on first use. *)

val plan_dot : t -> query -> plan_choice -> string
(** GraphViz source for the chosen plan. *)
