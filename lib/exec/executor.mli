(** Push-based plan executor over morsel pipelines, with deterministic
    work accounting.

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

val live_relations :
  Query.Query_graph.t ->
  projections:(int * int) list ->
  Util.Bitset.t ->
  int array ->
  int array
(** [live_relations graph ~projections set rels] is the live-slot rule:
    the relations of layout [rels] (a plan node over [set]) whose row
    ids some later operator reads, in [rels]'s order. Relation [r] is
    live iff it is projected or it has a join edge to a relation outside
    [set]. When none is (a COUNT-only root), the first of [rels] is
    kept, so a layout is never empty. Apply it to [graph] and
    [projections] once: the result precomputes the neighbour masks. *)

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

    The plan runs as push-based pipelines (HyPer-style, Leis et al.). A
    pipeline has a source — a base-table scan or a materialized batch —
    a chain of hash, index-NL and NL probe stages, and a sink that
    either materializes its input or takes COUNT and the projections'
    MIN. A node is fused into its parent's pipeline iff it is the outer
    (probe) input of a hash, NL or index-NL join; hash build sides and
    merge-join inputs and outputs are materialized. Every pipeline runs
    morsel-at-a-time (4096-row chunks of its source): each stage emits
    into a 4096-row per-worker buffer pushed to the next stage when
    full, so a probe-side intermediate is never stored whatever its
    fan-out. Every stage charges its operator's work units whether or
    not it is fused, and keeps its own row total, so [row_limit] trips
    on any intermediate that outgrows it, stored or not. A materializing sink copies each
    morsel's tuples into its worker's fixed-size staging segments,
    appended and never regrown; after the phase the calling domain
    stores them in one exact-size buffer (rows x live width x 4
    bytes), in source-morsel order, and each worker keeps at most one
    segment. Merge-join output is staged the same way. A hash build
    adopts the key hashes of its build phase as its table's hash
    column, so a stored build side exists once as tuples and once as
    hashes (8 bytes a row) plus chain links (4 bytes a row). The hash
    build sides of one pipeline are all live while it runs.

    A tuple is a row of base-table row ids, one slot per relation that
    {!live_relations} keeps at its node: a scan's tuple is its own row
    id, and a join's is its outer input's kept slots followed by its
    inner input's, each in its input's order. A slot is a
    {!Rowbuf} entry, 4 bytes: stored batches, staging segments, stage
    buffers and the scan's selected rows all hold row ids in 32 bits,
    and storing one outside [\[0, 2{^31})] raises [Invalid_argument]. Slots no later operator
    reads are dropped where the join builds the tuple, so stored batches
    and stage buffers hold only live slots. Work is charged per row,
    never per slot, so the layout moves no work unit, checkpoint or
    timeout.

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

    [observe] is the checkpoint hook: called once per evaluated plan
    node — in bottom-up execution order — with the node's relation
    subset, its exact row count, and the cumulative work spent so far.
    An attached observer materializes every node: each pipeline then
    holds a single stage and runs outer input first, then build side,
    so checkpoints fire in post-order with the same work values as an
    operator-at-a-time run. Results, work and timeouts equal the
    pipelined run's. Off by default and allocation-free when disabled.
    Exceptions raised by the observer abort the run and propagate to the
    caller (they are {e not} converted into a timeout result);
    [lib/reopt] relies on this to cut execution short when a cardinality
    mis-estimate is detected. *)
