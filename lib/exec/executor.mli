(** Volcano-inspired plan executor with deterministic work accounting.

    The executor is this reproduction's stand-in for the paper's
    PostgreSQL instance: it really evaluates the plan (every reported row
    count is exact), while "runtime" is a deterministic count of work
    units — rows scanned, hash-table entries built and chains walked,
    index lookups performed, nested-loop pairs considered — converted to
    milliseconds at {!Engine_config.work_units_per_ms}.

    Two estimate-sensitive behaviours are modeled physically:
    - hash tables are sized from the {e optimizer's} estimate of the
      build side ([size_est]); in non-resizing mode an underestimate
      yields long collision chains whose traversal is charged;
    - non-index nested-loop joins charge [|outer| * |inner|] work units
      (the result itself is computed hash-based, so answers stay exact
      even for plans that would take hours for real).

    A query that exceeds the configuration's work limit — or whose
    intermediate result outgrows its row limit, the work_mem stand-in —
    raises no exception: it returns a result with [timed_out = true] and
    the limit as its work. *)

type result = {
  rows : int;  (** Exact result cardinality (0 when timed out). *)
  work : int;
  runtime_ms : float;
  timed_out : bool;
  mins : Storage.Value.t list;
      (** MIN() of each requested projection, when the query finished. *)
}

val run :
  db:Storage.Database.t ->
  graph:Query.Query_graph.t ->
  config:Engine_config.t ->
  size_est:(Util.Bitset.t -> float) ->
  ?observe:(Util.Bitset.t -> rows:int -> work:int -> unit) ->
  ?pool:Util.Domain_pool.t ->
  ?cache:Join_cache.t ->
  ?projections:(int * int) list ->
  Plan.t ->
  result
(** Raises [Invalid_argument] when the plan needs an index the current
    physical design does not provide, or uses a nested-loop join under a
    configuration that forbids it.

    Base-table scans, hash-join key passes, and hash/index probes always
    run morsel-at-a-time (4096-row chunks): per-morsel output is staged
    per worker slot and reassembled in morsel-index order, and all
    budgets are checked against shared totals after every morsel.
    [pool] decides only where a phase runs (HyPer-style intra-query
    parallelism): a phase over at least two morsels of input runs on
    the pool's workers when the pool has at least two domains;
    otherwise the calling domain runs it alone, in morsel order. Results,
    work, and timeout behaviour are therefore byte-identical with and
    without a pool, at any worker count (see DESIGN §2h). Plan
    evaluation order, merge joins, and checkpoint observation stay on
    the calling domain, so [observe] never races. The pool may be
    shared: if it is busy with another task the calling domain runs the
    phase alone.

    [cache] enables cross-query join-build recycling: hash joins whose
    build side is a base-relation scan look up a sealed {!Join_table}
    (plus the scanned row set) in the shared {!Join_cache} and, on a
    hit, skip the scan and the build and go probe-only — while
    replaying the skipped work charges, so results, work accounting,
    checkpoint sequences, and timeout behaviour are byte-identical to
    an uncached run. Misses install the freshly sealed build for later
    queries. Off by default; the serving engine ([lib/serve]) is the
    intended user.

    [observe] is the checkpoint hook: called once per materialized plan
    node — in bottom-up execution order — with the node's relation
    subset, its exact row count, and the cumulative work spent so far.
    Off by default and allocation-free when disabled. Exceptions raised
    by the observer abort the run and propagate to the caller (they are
    {e not} converted into a timeout result); [lib/reopt] relies on this
    to cut execution short when a cardinality mis-estimate is detected. *)
