(** Join-sampling cardinality estimation — the paper's "first route"
    for future work (Section 8: "database systems can incorporate more
    advanced estimation algorithms that have been proposed in the
    literature", citing join samples, e.g. Haas et al.).

    A sampled sub-database keeps every small (dimension) table whole and
    an independent Bernoulli sample of each large table. The size of any
    join on the sample, scaled by the inverse sampling rates of the
    participating relations, is an unbiased estimator of the true join
    size — and unlike per-attribute statistics it {e sees} join-crossing
    correlations, because the correlated rows travel together into the
    sample. Its weakness is variance: deep, selective subexpressions
    often produce zero sampled rows, and the estimator must fall back.

    The point of the extension experiment is exactly the paper's: a
    technique from the literature beats all five production-style
    estimators on multi-join queries. *)

type t

val create : Storage.Database.t -> t
(** Build the sampled sub-database once; reusable across queries.
    Tables with more than 1000 rows are sampled at rate 0.1 (fixed PRNG
    seed), smaller tables are kept whole. *)

val sampling_rate : t -> string -> float
(** Rate used for one table. *)

val estimator : t -> Query.Query_graph.t -> Estimator.t
(** Estimator for one query: exact counting on the sample, scaled by the
    inverse rates; subexpressions with zero sampled rows fall back to
    the scale factor itself (the smallest value the sample can
    resolve). *)

val sampled_db : t -> Storage.Database.t
(** The sampled sub-database. Sampled fact tables carry no key metadata,
    since only exact counting runs on them; whole dimension tables are
    the source's own. *)
