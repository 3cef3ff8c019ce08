(** Cost models (Section 5 of the paper).

    A cost model maps a physical plan and a cardinality function to a
    scalar. Three models are provided:

    - {!postgres}: a disk-oriented weighted sum of page accesses and CPU
      work, structured like PostgreSQL's (seq/random page costs, CPU
      tuple/index-tuple/operator costs);
    - {!tuned}: the same with the CPU weights multiplied by 50 — the
      paper's main-memory tuning (Section 5.3);
    - {!cmm}: the paper's simple main-memory model C_mm (Section 5.4),
      which only counts tuples flowing through operators, with a scan
      discount [tau = 0.2] and an index-lookup penalty [lambda = 2].

    Join cost composition follows the plan conventions: hash and NL joins
    add to both children's costs; an index-NL join {e replaces} its
    inner child's scan (the index lookups are the access path). *)

type env = {
  graph : Query.Query_graph.t;
  db : Storage.Database.t;
  card : Util.Bitset.t -> float;
      (** Cardinality (estimate or truth) of a connected relation
          subset. *)
}

type t = {
  name : string;
  scan_cost : env -> int -> float;
  join_cost :
    env ->
    Plan.join_algo ->
    outer:Plan.t ->
    inner:Plan.t ->
    outer_cost:float ->
    inner_cost:float ->
    out_card:float ->
    outer_card:float ->
    inner_card:float ->
    float;
      (** Total cost of the join's subtree, given the children's costs
          and the cardinalities of the join's result ([out_card]) and of
          its outer and inner inputs. No cardinality is fetched from
          [env.card]: callers that already hold them (the DP table) pass
          them in. *)
}

val join_cost_from_env :
  t ->
  env ->
  Plan.join_algo ->
  outer:Plan.t ->
  inner:Plan.t ->
  outer_cost:float ->
  inner_cost:float ->
  float
(** [join_cost] with the three cardinalities fetched from [env.card], in
    the order result, outer, inner. *)

val plan_cost : t -> env -> Plan.t -> float
(** Total cost of a plan tree, its cardinalities fetched from [env.card]
    node by node as in {!join_cost_from_env}. *)

val postgres : t
val tuned : t
val cmm : t

val all : t list

val by_name : string -> t option

(** Parameters exposed for tests and ablations. *)

val cmm_tau : float
val cmm_lambda : float
