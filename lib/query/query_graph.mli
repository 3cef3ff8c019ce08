(** The bound query graph: the optimizer's view of one JOB query.

    Relations are indexed 0..n-1; subsets of relations are
    {!Util.Bitset.t} values. Edges are equality join predicates between
    two relation columns; [fk_side] records which side references the
    other's primary key (both [None] for the FK/FK "dotted" edges of the
    paper's Figure 2). *)

type relation = {
  idx : int;
  alias : string;
  table : Storage.Table.t;
  preds : Predicate.t;
}

type edge = {
  left : int;  (** relation index *)
  left_col : int;
  right : int;  (** relation index *)
  right_col : int;
  pk_side : [ `Left | `Right ] option;
      (** Which side is a primary key, if either (key/foreign-key edge). *)
}

type t

val create : name:string -> relation array -> edge list -> t
(** Validates indices and that the graph is connected. *)

val name : t -> string
val n_relations : t -> int
val relations : t -> relation array
val relation : t -> int -> relation
val edges : t -> edge list
val n_edges : t -> int

val relation_by_alias : t -> string -> relation option

val adjacency : t -> int -> Util.Bitset.t
(** Neighbor mask of one relation. *)

val neighbors : t -> Util.Bitset.t -> Util.Bitset.t
(** Union of neighbors of a subset, minus the subset itself. *)

val is_connected : t -> Util.Bitset.t -> bool
(** O(|S|) BFS with bit tricks; true for singletons, false for empty. *)

val flip : edge -> edge
(** The same edge with its sides swapped. *)

val edges_between : t -> Util.Bitset.t -> Util.Bitset.t -> edge list
(** Join edges with one endpoint in each (disjoint) subset, oriented so
    that [left] lies in the first subset. *)

val connected_subsets : t -> Util.Bitset.t array
(** All connected non-empty subsets, sorted by cardinality then value:
    the singletons come first, relation [r] at position [r], and the
    full set last. A subset's position is its {e ordinal}. Enumerated
    once per graph (DPccp's EnumerateCsg, never a scan of all [2^n]
    masks) and shared by every caller: the array must not be mutated.
    The split lists ({!iter_splits}) are kept off the OCaml heap. Raises
    [Invalid_argument] for a graph with more than [2^20] connected
    subsets. *)

val subset_ordinal : t -> Util.Bitset.t -> int option
(** Position of a subset in {!connected_subsets} (binary search);
    [None] when the subset is empty or not connected. *)

val iter_splits : t -> int -> (int -> int -> unit) -> unit
(** [iter_splits t o f] calls [f outer inner] for every way to split the
    connected subset of ordinal [o] into two connected halves, given as
    ordinals: DPccp's csg-cmp pairs, in both orientations. The splits
    come by the outer half's mask, descending — the order in which
    submask enumeration meets them. None for singletons. *)

val join_columns : t -> int -> int list
(** Columns of a relation that participate in any join edge (sorted,
    deduplicated). *)

val full_set : t -> Util.Bitset.t

val pp : Format.formatter -> t -> unit
(** Human-readable dump: relations with predicates, then edges. *)
