(** Cardinality estimators and the compositional estimation framework.

    An estimator answers one question: how many rows does the join of a
    connected relation subset produce (after base-table selections)?
    Singletons give base-table estimates; larger subsets are estimated
    compositionally with the textbook join formula, exactly like
    PostgreSQL: pick a relation [r] whose removal keeps the subset
    connected, estimate [|S \ r|], and multiply by [|σ(r)|] and the
    selectivity of every join edge that connects [r] to the rest.

    The framework exposes the two knobs that differentiate the five
    emulated systems:
    - how edge selectivities are {e combined} (pure independence, or
      damped "exponential backoff" that trusts independence less as more
      joins pile up — the behaviour the paper attributes to DBMS A);
    - how intermediate estimates are {e rounded} ([Clamp_one] reproduces
      PostgreSQL's round-up-to-1 artifact; [Floor_one] reproduces the
      DBMS B collapse to exactly 1 row beyond a couple of joins). *)

type t = {
  name : string;
  base : int -> float;  (** Estimated [|σ(R_i)|]. *)
  subset : Util.Bitset.t -> float;
      (** Estimated size of a connected subset join; memoized. *)
}

type combine =
  | Independence
  | Backoff of float
      (** [Backoff c]: every join selectivity after the first applied
          within one query is raised to the power [c] ([0 < c < 1]),
          pulling deep join estimates up toward the truth — the damping
          the paper attributes to DBMS A. *)

type rounding =
  | No_rounding
  | Clamp_one  (** Estimates below 1 become exactly 1 (PostgreSQL). *)
  | Floor_one  (** Truncate to an integer, floored at 1 (DBMS B). *)

val compositional :
  name:string ->
  graph:Query.Query_graph.t ->
  base:(int -> float) ->
  edge_selectivity:(Query.Query_graph.edge -> float) ->
  ?combine:combine ->
  ?rounding:rounding ->
  unit ->
  t
(** Build a memoized estimator over one query graph. [base] is consulted
    once per relation. Multi-relation estimates are memoized in a float
    array indexed by {!Query.Query_graph.subset_ordinal}, allocated on
    the first multi-relation probe: an instance asked only for base
    estimates never forces the graph's plan space, and a cached one
    holds one unboxed word per connected subset. A disconnected subset
    is estimated but not memoized. *)

val of_function :
  name:string -> base:(int -> float) -> (Util.Bitset.t -> float) -> t

val textbook_edge_selectivity :
  dom:(rel:int -> col:int -> float) -> Query.Query_graph.edge -> float
(** [1 / max(dom x, dom y)] — the System-R / PostgreSQL join selectivity
    from Section 2.3 of the paper. *)
