(** Query-engine configurations — the axes of Section 4's experiments.

    [default_9_4] is stock PostgreSQL 9.4 behaviour: nested-loop joins
    allowed, hash tables sized once from the optimizer's cardinality
    estimate. [no_nl] disables the risky non-index nested-loop join
    (Figure 6b). [robust] additionally resizes hash tables at runtime,
    the backported 9.5 patch (Figure 6c).

    Nothing here says where the executor runs its morsel phases: that
    follows from the worker pool handed to {!Executor.run}, and it never
    changes a result. *)

type t = {
  name : string;
  allow_nl_join : bool;
  resize_hash_tables : bool;
  work_limit : int;  (** Work units before a query times out. *)
  row_limit : int;
      (** Maximum rows one intermediate result may materialize — the
          stand-in for exceeding work_mem; exceeding it counts as a
          timeout. *)
  hash_bucket_floor : int;
      (** Minimum hash-join bucket count regardless of the estimate
          (PostgreSQL-style; 1024 by default). *)
}

val default_9_4 : t
val no_nl : t
val robust : t

val work_units_per_ms : float
(** Conversion constant between simulated work units and reported
    milliseconds. *)

val default_work_limit : int
val default_row_limit : int
