(** Exhaustive join-order optimization by dynamic programming over
    connected subgraphs — bushy trees, no cross products, exactly
    PostgreSQL's enumeration (Section 2.3 of the paper), visiting only
    the csg-cmp splits {!Query.Query_graph.iter_splits} lists. Shape
    limits in the search context turn the same machinery into the
    left-deep / right-deep / zig-zag enumerators of Section 6.2. *)

val optimize : Search.t -> Plan.t * float
(** Optimal plan and its estimated cost for the full relation set.
    Raises [Invalid_argument] if no plan exists (cannot happen for
    connected graphs with hash joins enabled). *)

val optimize_seeded :
  Search.t -> seeds:(Plan.t * float) list -> Plan.t * float
(** Re-entrant enumeration for mid-query re-optimization: like
    {!optimize}, but the DP table is pre-seeded with already-executed
    plan fragments at their (sunk) costs. Each seed's relation subgraph
    behaves like a base relation — it can only appear atomically in the
    result, because none of its member singletons is enumerable on its
    own. Seeds must be pairwise disjoint connected subsets
    ([Invalid_argument] otherwise);
    [optimize] is [optimize_seeded ~seeds:\[\]]. *)

val optimize_all_subsets : Search.t -> (Plan.t * float) option array
(** The full DP table, for experiments that inspect sub-plans: the best
    plan of each connected subset, indexed by its ordinal in
    {!Query.Query_graph.connected_subsets}. *)
