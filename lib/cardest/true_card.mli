(** Exact cardinalities of every connected subexpression of a query.

    This replaces the paper's [SELECT COUNT( * )] runs (Section 2.4).
    Instead of materializing intermediate results, the computation
    aggregates multiplicities. One pass over each base table groups its
    rows that pass the relation's predicates by all of its join columns.
    Each connected subset then gets its join-attribute {e equivalence
    classes} from the equality edges inside it, and a join tree over its
    members. An acyclic subset is counted by Yannakakis-style message
    passing over that tree, reading the members' base groups as they
    are: each node multiplies its groups by its children's messages and
    sends its parent the totals keyed by the classes they share. The
    message tables come from a pool that lives for one {!compute} call
    and are cleared for reuse, so a subset allocates almost nothing. A
    cyclic subset falls back to pairwise joins of projected groups.

    Every intermediate value is an integer no larger than some connected
    subset's cardinality, so the floats are exact, and independent of
    the order of the sums and products, while cardinalities stay below
    2^53.

    Cost: one pass over each base table plus, per connected subset,
    work proportional to its members' base group counts (bounded by the
    join-key domains, not by intermediate result sizes). *)

type t

val compute : Query.Query_graph.t -> t
(** Runs the full bottom-up DP eagerly over all connected subsets. *)

val card : t -> Util.Bitset.t -> float
(** Exact cardinality of a connected subset. Raises [Invalid_argument]
    for subsets that are not connected in the query graph. *)

val base : t -> int -> float
(** Exact [|σ(R_i)|]. *)

val estimator : t -> Estimator.t
(** The oracle "estimator" used for cardinality injection of true
    values. *)
