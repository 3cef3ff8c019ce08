(** Row samples, the raw material of ANALYZE.

    PostgreSQL samples ~30 k rows per table for its statistics; HyPer
    keeps a 1000-row materialized sample per table and evaluates
    predicates on it directly. Both are modeled here as arrays of row
    ids, except that a sample of the whole table holds none. *)

type t

val take : Util.Prng.t -> Storage.Table.t -> size:int -> t
(** Uniform sample without replacement; the whole table, with no PRNG
    draw, when [size >= row_count]. *)

val rows : t -> int array
(** The sampled row ids, in sample order; a fresh [[|0; ...; n-1|]] for
    a whole-table sample. *)

val evaluate : t -> Storage.Table.t -> (int -> bool) -> int
(** Number of sampled rows satisfying a compiled predicate. *)

val selectivity : t -> Storage.Table.t -> (int -> bool) -> float
(** Fraction of the sample satisfying the predicate (0 when the sample is
    empty). *)

val size : t -> int
