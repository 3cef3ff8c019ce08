(** Equi-depth (quantile) histograms.

    Built over integer values — either the column's own integers or, for
    string columns, lexicographic ranks of dictionary codes. This mirrors
    PostgreSQL, whose histogram bounds are quantiles of a sorted
    sample. *)

type t

val build : buckets:int -> int array -> t option
(** [build ~buckets values] from (sampled) non-NULL values: bound [i] is
    element [i * (n - 1) / buckets] of the sorted values. [None] when no
    values. The number of buckets is capped by the number of values. *)

val of_counts : buckets:int -> lo:int -> int array -> t option
(** [of_counts ~buckets ~lo counts] is [build ~buckets] over the values
    [lo + k], each repeated [counts.(k)] times (zero counts allowed),
    without expanding them: one walk of [counts]. [None] when every
    count is 0. *)

val bucket_count : t -> int

val bounds : t -> int array
(** [bucket_count + 1] quantile boundaries, non-decreasing. *)

val range_selectivity : t -> ?lo:int -> ?hi:int -> unit -> float
(** Estimated fraction of values in the inclusive range [lo..hi]
    (open-ended when a bound is missing), with linear interpolation inside
    buckets. Result is clamped to [\[0, 1\]]. *)

val cmp_selectivity : t -> Query.Predicate.cmp -> int -> float
(** Selectivity of [column op constant] for order operators; equality
    gets the width-based point estimate (callers normally prefer
    MCV/distinct-based equality estimates). *)
