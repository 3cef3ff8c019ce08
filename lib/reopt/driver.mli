(** The mid-query re-optimization driver (Perron et al., PAPERS.md):
    closes the loop from execution back into planning.

    Execution proceeds bottom-up under the executor's checkpoint hook.
    At every materialized join result, the observed cardinality is
    compared against what the planning-time estimator predicted; when
    the q-error exceeds [threshold], the attempt is abandoned, the
    already-materialized subtree is pinned as an atomic plan fragment
    (sunk cost, exact cardinality), the remaining joins are re-enumerated
    with {!Planner.Dp.optimize_seeded} under a {!Feedback.overlay}
    estimator, the re-planned tree is passed through [lib/verify]'s plan
    sanitizer, and execution restarts.

    Determinism: the executor is deterministic, the DP enumerator is
    deterministic, and the feedback overlay answers from exact observed
    counts — so for a fixed (query, estimator, model, engine, threshold)
    the whole trajectory, including the number of re-plans, is a pure
    function of the database. Nothing here depends on wall-clock time or
    on scheduling. *)

type outcome = {
  result : Exec.Executor.result;
      (** Final execution result. [work] (and [runtime_ms]) include the
          work wasted on abandoned attempts, minus the credit for
          re-executing pinned fragments: a fragment is paid for once, in
          the attempt that materialized it, as in a system that keeps
          intermediates around. *)
  static_plan : Plan.t;  (** The round-0 plan (re-optimization off). *)
  final_plan : Plan.t;  (** The plan of the attempt that completed. *)
  replans : int;  (** Number of abandoned attempts. *)
  wasted_work : int;
      (** New (non-fragment) work units spent in abandoned attempts. *)
  reused_work : int;
      (** Work units credited back for fragment re-executions, measured
          from the contiguous post-order checkpoint interval each pinned
          subtree occupies. *)
  feedback : Feedback.t;  (** Every checkpoint observed across rounds. *)
}

val checkpoint_count : Plan.t -> int
(** How many checkpoints a complete run of the plan fires: one per plan
    node except an index-NL join's inner scan, which is never evaluated
    on its own. An attached observer makes every node a pipeline
    breaker, so this is also the number of materialized nodes plus the
    root. *)

val run :
  db:Storage.Database.t ->
  graph:Query.Query_graph.t ->
  config:Exec.Engine_config.t ->
  model:Cost.Cost_model.t ->
  estimator:Cardest.Estimator.t ->
  ?threshold:float ->
  ?max_replans:int ->
  ?plan0:Plan.t ->
  ?pool:Util.Domain_pool.t ->
  ?projections:(int * int) list ->
  unit ->
  outcome
(** Defaults: [threshold = 2.0] (a checkpoint twice or half its estimate
    trips a re-plan), [max_replans = 8]. [plan0] supplies the round-0
    plan (e.g. the pipeline's cached choice for this estimator/model);
    when absent the driver runs its own exhaustive DP. The non-index
    nested-loop join is allowed in re-planning exactly when [config]
    allows it at execution. [pool] turns on morsel-parallel execution
    inside every attempt: plan evaluation — and with it the post-order
    checkpoint sequence the feedback loop observes — stays on the
    calling domain, and each checkpoint sees the same cumulative work
    as the serial path (phase totals are order-independent sums), so
    re-planning decisions, q-errors, and the wasted/reused accounting
    are byte-identical at any worker count. Raises [Invalid_argument]
    when [threshold < 1.0] or [max_replans < 0]. *)
