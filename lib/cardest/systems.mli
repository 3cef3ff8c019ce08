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

val postgres :
  ?true_distinct:bool -> Dbstats.Analyze.t -> context -> Estimator.t
(** Histogram + MCV + sampled-distinct statistics, independence,
    clamp-to-1. [true_distinct] switches the join formula's domain
    cardinalities to exact distinct counts (the Figure 5 variant). *)

val hyper : Dbstats.Analyze.t -> context -> Estimator.t
(** 1000-row table sample evaluated against the full conjunction; magic
    fallback when the sample yields zero rows. *)

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
