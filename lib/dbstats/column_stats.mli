(** Per-column statistics as produced by ANALYZE.

    For string columns, order-sensitive structures (histogram) operate on
    lexicographic ranks of dictionary codes; {!ranks} performs the
    translation. Equality structures (MCVs, distinct counts) operate on
    raw codes.

    Only order predicates read the histogram and the ranks. An int
    column's histogram is built with the other statistics; a string
    column's, and its ranks, are built on first use, under a
    {!Util.Once} cell, from the sample the other statistics came from.
    Either way they are a pure function of that sample: when and on
    which domain they are built changes nothing. ({!Analyze} defers
    the whole [build] of a column the same way, to its first read.) *)

type t = {
  row_count : int;
  null_fraction : float;
  distinct_sampled : float;
      (** Haas–Stokes Duj1 estimate from the sample — systematically low
          for skewed columns, exactly the PostgreSQL failure mode the
          paper's Section 3.4 studies. *)
  distinct_exact : float;  (** True distinct count (Figure 5 variant). *)
  mcv : (int * float) array;
      (** Most common values: (code, fraction of all rows), descending. *)
  histogram_cell : Histogram.t option Util.Once.t;  (** Read through {!histogram}. *)
  ranks_cell : int array option Util.Once.t;  (** Read through {!ranks}. *)
}

val build :
  Storage.Table.t ->
  col:int ->
  sample_rows:int array ->
  ?buckets:int ->
  ?mcv_entries:int ->
  unit ->
  t
(** [build table ~col ~sample_rows ()] counts the sampled codes in one
    pass and derives the MCVs and the distinct and null counts. An int
    column's histogram comes from the same counts when its code range is
    narrow ({!Storage.Column.dense_span}), else from a second pass. A
    string column's histogram and ranks wait for their first reader;
    that deferred build rescans [sample_rows], which must stay
    unchanged. *)

val mcv_fraction_total : t -> float
(** Total mass held by the MCV list. *)

val mcv_find : t -> int -> float option
(** Fraction of a code if it is an MCV. *)

val histogram : t -> Histogram.t option
(** Over values (int columns) or lexicographic ranks (string columns);
    built from the non-MCV part of the sample. [None] when that part is
    empty. *)

val ranks : t -> int array option
(** For string columns: [(Option.get (ranks t)).(code)] is the code's
    lexicographic rank in the dictionary. Shared with the dictionary
    ({!Storage.Dict.ranks}); must not be mutated. [None] for int
    columns. *)

val rank : t -> int -> int
(** Rank of a code (identity for int columns). *)

val rank_of_string : t -> Storage.Column.t -> string -> int
(** Rank a string constant would occupy in the column's dictionary order
    (for estimating [col < 'foo'] when ['foo'] itself is not stored).
    Returns the rank of the smallest dictionary entry [>=] the constant:
    the number of entries strictly smaller, by binary search. *)
