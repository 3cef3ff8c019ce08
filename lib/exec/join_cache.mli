(** Cross-query join-build recycling.

    A budgeted, sharded cache of sealed {!Join_table}s plus the
    build-side base-table selection they were built over, keyed on
    everything the build is a pure function of: table identity,
    predicate digest, ordered join-key columns and planned bucket
    sizing. On a hit the executor skips the build-side scan and the
    hash build entirely and goes probe-only
    — while *replaying* the skipped simulated work charges, so results,
    work accounting, and timeout behaviour stay byte-identical to an
    uncached run. The savings is wall-clock only, which is the point.

    Entries are immutable once published and safe to share across any
    number of serving domains. Eviction is LRU under a byte budget. *)

type t

type key

type entry = {
  e_rows : Rowbuf.t;  (** surviving row ids of the build-side scan, 4 bytes each *)
  e_nrows : int;
  e_table : Join_table.t;  (** sealed; probe-only from here on *)
  e_scan_work : int;  (** replayed on hit: the full-table scan charge *)
  e_build_work : int;  (** replayed on hit: 1 per build row *)
  e_seal_work : int;  (** replayed on hit: the seal's resize bill *)
  e_bytes : int;
      (** charged against the budget: {!Join_table.byte_size} of the
          table, 4 bytes per row id, and a fixed per-entry overhead *)
  e_tick : int Atomic.t;  (** LRU recency stamp *)
}

val default_budget_bytes : int
(** 64 MiB. *)

val create : ?shards:int -> ?budget_bytes:int -> unit -> t
(** Raises [Invalid_argument] when [budget_bytes < 1]. *)

(** {1 Key construction} *)

val pred_digest : Query.Predicate.t -> string
(** Canonical digest of a scan's predicate AST (atoms are pure data). *)

val make_key :
  table:string ->
  table_rows:int ->
  pred:string ->
  cols:int list ->
  buckets:int ->
  resizable:bool ->
  key
(** [cols] must be in edge order — composite hashes fold columns in
    order, so a permutation is a different physical table. [buckets]
    is {!Join_table.planned_buckets} for the build's estimate: the same
    build under a different cardinality estimate is a different table
    (bucket sizing from estimates is the paper's pathology, and the
    cache must not launder it away). *)

(** {1 Lookup / install} *)

val find : t -> key -> entry option
(** Counts a hit or miss and, on hit, touches the entry's LRU stamp. *)

val install :
  t ->
  key ->
  rows:Rowbuf.t ->
  nrows:int ->
  table:Join_table.t ->
  scan_work:int ->
  build_work:int ->
  seal_work:int ->
  unit
(** Publish a freshly sealed build. [rows] must never be written again
    (the executor keeps it out of its scratch pool); [table] must be
    sealed and never touched again. First writer wins on a racing key;
    an install that pushes the cache over budget evicts least-recently
    used entries until it fits (possibly including the new entry). *)

(** {1 Telemetry} *)

type stats = {
  hits : int;
  misses : int;
  installs : int;
  evictions : int;
  entries : int;
  bytes : int;
  budget_bytes : int;
}

val stats : t -> stats
val hit_rate : stats -> float
