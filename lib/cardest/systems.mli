(** The five emulated cardinality estimators (PostgreSQL, DBMS A, DBMS B,
    DBMS C, HyPer).

    Each system is modeled by the mechanism the paper diagnoses for it,
    not by reverse-engineered internals (those are black boxes in the
    paper too); see DESIGN.md §4 for the mapping. All five share the
    compositional join framework of {!Estimator}; they differ in

    - base-table estimation: per-attribute statistics under the
      independence assumption (PostgreSQL, DBMS B, DBMS C) versus
      evaluating the whole conjunction on a materialized table sample
      (HyPer: 1000 rows; DBMS A: 5000 rows), which captures intra-table
      correlations;
    - the magic constants used where statistics cannot help;
    - join-selectivity combination: pure independence versus DBMS A's
      damping ("exponential backoff");
    - rounding: PostgreSQL clamps intermediate estimates up to 1 row,
      DBMS B floors them to integers (collapsing to 1 beyond a couple of
      joins). *)

type context = {
  db : Storage.Database.t;
  graph : Query.Query_graph.t;
}

type parts = {
  name : string;
  base : int -> float;
      (** Base estimates; the same value on every call for a relation. *)
  edge_selectivity : Query.Query_graph.edge -> float;
  combine : Estimator.combine;
  rounding : Estimator.rounding;
}
(** What one system's estimator over one query is built from: each
    system below is {!Estimator.compositional} over its parts. Exposed
    so the framework can be checked against a reference built from the
    same parts. *)

val postgres_parts : ?true_distinct:bool -> Dbstats.Analyze.t -> context -> parts
val dbms_a_parts : Dbstats.Analyze.t -> context -> parts
val dbms_b_parts : Dbstats.Analyze.t -> context -> parts
val dbms_c_parts : Dbstats.Analyze.t -> context -> parts
val hyper_parts : Dbstats.Analyze.t -> context -> parts
(** Fresh parts of {!postgres}, {!dbms_a}, {!dbms_b}, {!dbms_c} and
    {!hyper}, taking the same statistics. *)

type sampling = { sample_size : int; fallback : float; seed : int }
(** A sample-based system's base estimation: the per-table sample size,
    the selectivity assumed when no sampled row qualifies, and the seed
    of the instance's sampling PRNG. Exposed for a reference that
    samples the same way. *)

val hyper_sampling : sampling
val dbms_a_sampling : sampling

val postgres :
  ?true_distinct:bool -> Dbstats.Analyze.t -> context -> Estimator.t
(** Histogram + MCV + sampled-distinct statistics, independence,
    clamp-to-1. [true_distinct] switches the join formula's domain
    cardinalities to exact distinct counts (the Figure 5 variant). *)

val hyper : Dbstats.Analyze.t -> context -> Estimator.t
(** 1000-row table sample evaluated against the full conjunction; magic
    fallback when the sample yields zero rows. A sample is shared by
    the aliases of its table and dropped once every relation of the
    query has its base estimate, so a cached instance keeps its
    estimates, not row ids. DBMS A samples the same way. *)

val dbms_a : Dbstats.Analyze.t -> context -> Estimator.t
(** 5000-row sample plus damped join-selectivity combination — the best
    estimator in the paper's comparison. *)

val dbms_a_damping : float
(** The damping exponent DBMS A uses (0.85). *)

val dbms_a_damped : float -> Dbstats.Analyze.t -> context -> Estimator.t
(** DBMS A with an explicit damping exponent (1.0 = pure independence);
    used by the ablation bench. *)

val dbms_b : Dbstats.Analyze.t -> context -> Estimator.t
(** Coarse statistics, crude magic constants, floor-to-1 rounding — the
    paper's aggressive underestimator. *)

val dbms_c : Dbstats.Analyze.t -> context -> Estimator.t
(** Optimistic fixed selectivities for histogram-resistant predicates —
    large base-table overestimates in the error tail. *)

val names : string list
(** The display names, in the paper's order: PostgreSQL, DBMS A, DBMS B,
    DBMS C, HyPer. *)

val coarse_analyze : Storage.Database.t -> Dbstats.Analyze.t
(** The degraded ANALYZE configuration used by DBMS B (small sample, 10
    buckets, 5 MCVs). *)
