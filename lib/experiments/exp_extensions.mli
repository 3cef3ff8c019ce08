(** The paper's two future-work routes, implemented and measured
    (Section 8: better estimation algorithms from the literature, and
    more interaction between runtime and optimizer).

    Extension 1 — {b join sampling} ({!Cardest.Join_sample}): exact
    counting on a sampled sub-database, scaled by the inverse sampling
    rates. Compared against PostgreSQL's estimator per join count,
    Figure-3 style: the sample sees join-crossing correlations, so its
    medians stay near 1 where the per-attribute estimators have
    collapsed.

    Extension 3 — the q-error plan-quality bound of the paper's
    reference [30], checked empirically ({!Cardest.Qbound}).

    The second route, runtime feedback into the optimizer, is
    {!Reopt.Driver}'s checkpoint re-optimization, reported by
    [jobench experiment reopt] ({!Exp_reopt}). *)

val join_sampling : Harness.t -> string

val qerror_bound : Harness.t -> string
(** Empirical validation of the q^4 plan-quality guarantee of the
    paper's reference [30] ({!Cardest.Qbound}). *)

val render : Harness.t -> string
