(** Log2-bucket histograms plus the suite's one exact-quantile
    implementation.

    The bucketed form is what the metrics registry aggregates: 64
    power-of-two buckets, constant memory, mergeable. The exact
    {!percentile} holds the nearest-rank p50/p95/p99 math that used to
    live in [Serve.Report]; the serve report calls here, so its values
    are byte-identical to what the local copy produced. *)

type t

val create : unit -> t

val observe : t -> int -> unit
(** Record one non-negative observation (negatives clamp to 0). *)

val count : t -> int
(** Observations recorded, equal to the sum of all bucket counts. *)

val sum : t -> int
(** Exact sum of all observed values (kept alongside the buckets). *)

val buckets : t -> int array
(** A copy of the 64 bucket counts. Bucket 0 holds value 0; bucket
    [k >= 1] holds values in [[2^(k-1), 2^k - 1]]. *)

val bucket_lower : int -> int
(** Inclusive lower bound of bucket [k]: 0 for bucket 0, else
    [2^(k-1)]. *)

val merge : t -> t -> t
(** Pointwise sum, as a fresh histogram — associative, commutative, and
    count-preserving (the laws the QCheck suite pins down). Inputs are
    not mutated. *)

val approx_quantile : t -> float -> int
(** Nearest-rank quantile resolved to bucket precision: the upper bound
    of the bucket holding the [ceil (q * count)]-th smallest
    observation. 0 on an empty histogram. *)

val percentile : float array -> float -> float
(** Nearest-rank percentile over an unsorted exact sample; [q] in
    [0, 1]. The serving report's p50/p95/p99. *)
