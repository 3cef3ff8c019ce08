(** Shared plan-search context: which join methods are legal, and how a
    candidate join is costed.

    The index-nested-loop option exists only when the database's current
    physical design provides an index on the inner base relation's
    join column — this is how the paper's "no / PK / PK+FK indexes"
    configurations reshape the search space. The (non-index) nested-loop
    option is the "risky" operator; Section 4.1 disables it. *)

type shape_limit = Any_shape | Only_left_deep | Only_right_deep | Only_zig_zag

type t = {
  env : Cost.Cost_model.env;
  model : Cost.Cost_model.t;
  allow_nl : bool;
  allow_hash : bool;  (** PostgreSQL's [enable_hashjoin]; sort-merge steps in when off. *)
  shape : shape_limit;
  inl_from : Util.Bitset.t array;
      (** [inl_from.(r)]: relations joined to [r] by an edge whose column
          on [r]'s side is indexed, fixed when the context is created. *)
}

val create :
  ?allow_nl:bool ->
  ?allow_hash:bool ->
  ?shape:shape_limit ->
  model:Cost.Cost_model.t ->
  graph:Query.Query_graph.t ->
  db:Storage.Database.t ->
  card:(Util.Bitset.t -> float) ->
  unit ->
  t

val inl_possible : t -> outer:Plan.t -> inner:Plan.t -> bool
(** Inner is a base scan and an index exists on one of the join edges'
    inner columns. *)

val shape_allows : t -> outer:Plan.t -> inner:Plan.t -> bool
(** Whether the shape limit admits a join of [outer] with [inner]. *)

val cheapest_algo :
  t ->
  outer:Plan.t ->
  inner:Plan.t ->
  outer_cost:float ->
  inner_cost:float ->
  out_card:float ->
  outer_card:float ->
  inner_card:float ->
  Plan.join_algo * float
(** The cheapest legal join algorithm for [outer] joined with [inner]
    and its cost, without allocating the join. On equal cost the
    preference is NL, then INL, then merge, then hash. Shape limits are
    not checked. *)

val best_join : t -> outer:Plan.t * float -> inner:Plan.t * float -> (Plan.t * float) option
(** Cheapest legal join of [outer] with [inner] (in this orientation), or
    [None] when the shape limit forbids it. The cardinalities are fetched
    from [env.card] in the order result, outer, inner. *)

val best_join_any_orientation :
  t -> Plan.t * float -> Plan.t * float -> (Plan.t * float) option
(** Tries both orientations. *)

val scan_entry : t -> int -> Plan.t * float
