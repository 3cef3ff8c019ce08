(** Mid-query re-optimization (Perron et al., PAPERS.md): slowdown
    distributions vs the true-cardinality optimum for the five emulated
    estimators with execution-time cardinality feedback off and on, plus
    the Simpli-Squared no-estimates baseline, re-plan counts, and a
    q-error threshold sweep. Both arms run with checkpoints enabled and
    must return identical query results — enforced per execution. *)

val buckets : float array

val bucket_labels : string list

val threshold : float Atomic.t
(** Q-error trip point for the main table (default 2.0); set by
    [jobench experiment --reopt-threshold]. *)

val render : Harness.t -> string
