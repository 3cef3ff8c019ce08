(** Per-column statistics as produced by ANALYZE.

    For string columns, order-sensitive structures (histogram) operate on
    lexicographic ranks of dictionary codes; [rank_of_code] performs the
    translation. Equality structures (MCVs, distinct counts) operate on
    raw codes. *)

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
  histogram : Histogram.t option;
      (** Over values (int columns) or lexicographic ranks (string
          columns); built from the non-MCV part of the sample. *)
  rank_of_code : int array option;
      (** For string columns: [rank_of_code.(code)] is the code's
          lexicographic rank in the dictionary. Shared with the
          dictionary ({!Storage.Dict.ranks}); must not be mutated. *)
}

val build :
  Storage.Table.t ->
  col:int ->
  sample_rows:int array ->
  ?buckets:int ->
  ?mcv_entries:int ->
  unit ->
  t

val mcv_fraction_total : t -> float
(** Total mass held by the MCV list. *)

val mcv_find : t -> int -> float option
(** Fraction of a code if it is an MCV. *)

val rank : t -> int -> int
(** Rank of a code (identity for int columns). *)

val rank_of_string : t -> Storage.Column.t -> string -> int
(** Rank a string constant would occupy in the column's dictionary order
    (for estimating [col < 'foo'] when ['foo'] itself is not stored).
    Returns the rank of the smallest dictionary entry [>=] the constant:
    the number of entries strictly smaller, by binary search. *)
