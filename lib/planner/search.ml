module Bitset = Util.Bitset
module QG = Query.Query_graph

type shape_limit = Any_shape | Only_left_deep | Only_right_deep | Only_zig_zag

type t = {
  env : Cost.Cost_model.env;
  model : Cost.Cost_model.t;
  allow_nl : bool;
  allow_hash : bool;
  shape : shape_limit;
  inl_from : Bitset.t array;
}

(* [inl_from.(r)]: the relations with a join edge to [r] whose column on
   [r]'s side has an index in the current physical design. Asking the
   database builds that index now, as the first join costing would. *)
let index_neighbours graph db =
  let inl_from = Array.make (QG.n_relations graph) Bitset.empty in
  let probe ~rel ~col ~other =
    let table = Storage.Table.name (QG.relation graph rel).QG.table in
    if Storage.Database.index db ~table ~col <> None then
      inl_from.(rel) <- Bitset.add other inl_from.(rel)
  in
  List.iter
    (fun (e : QG.edge) ->
      probe ~rel:e.QG.right ~col:e.QG.right_col ~other:e.QG.left;
      probe ~rel:e.QG.left ~col:e.QG.left_col ~other:e.QG.right)
    (QG.edges graph);
  inl_from

let create ?(allow_nl = false) ?(allow_hash = true) ?(shape = Any_shape) ~model
    ~graph ~db ~card () =
  {
    env = { Cost.Cost_model.graph; db; card };
    model;
    allow_nl;
    allow_hash;
    shape;
    inl_from = index_neighbours graph db;
  }

let inl_possible t ~outer ~inner =
  match Plan.base_rel inner with
  | None -> false
  | Some r -> not (Bitset.disjoint outer.Plan.set t.inl_from.(r))

let shape_allows t ~outer ~inner =
  match t.shape with
  | Any_shape -> true
  | Only_left_deep -> Plan.is_base inner
  | Only_right_deep -> Plan.is_base outer
  | Only_zig_zag -> Plan.is_base inner || Plan.is_base outer

(* The legal algorithms are met in the order NL, INL, merge, hash, and a
   later one wins only when strictly cheaper: on equal cost the earlier
   one is kept. Merge is always legal, so there is always a winner. *)
let cheapest_algo t ~outer ~inner ~outer_cost ~inner_cost ~out_card ~outer_card
    ~inner_card =
  let cost algo =
    t.model.Cost.Cost_model.join_cost t.env algo ~outer ~inner ~outer_cost ~inner_cost
      ~out_card ~outer_card ~inner_card
  in
  let best_algo = ref Plan.Merge_join and best_cost = ref 0.0 and found = ref false in
  let consider algo =
    let c = cost algo in
    if (not !found) || c < !best_cost then begin
      best_algo := algo;
      best_cost := c;
      found := true
    end
  in
  if t.allow_nl then consider Plan.Nl_join;
  if inl_possible t ~outer ~inner then consider Plan.Index_nl_join;
  consider Plan.Merge_join;
  if t.allow_hash then consider Plan.Hash_join;
  (!best_algo, !best_cost)

let best_join t ~outer:(outer, outer_cost) ~inner:(inner, inner_cost) =
  if not (shape_allows t ~outer ~inner) then None
  else begin
    let card = t.env.Cost.Cost_model.card in
    let out_card = card (Bitset.union outer.Plan.set inner.Plan.set) in
    let outer_card = card outer.Plan.set in
    let inner_card = card inner.Plan.set in
    let algo, cost =
      cheapest_algo t ~outer ~inner ~outer_cost ~inner_cost ~out_card ~outer_card
        ~inner_card
    in
    Some (Plan.join algo ~outer ~inner, cost)
  end

let best_join_any_orientation t a b =
  let forward = best_join t ~outer:a ~inner:b in
  let backward = best_join t ~outer:b ~inner:a in
  match (forward, backward) with
  | None, r | r, None -> r
  | Some ((_, cf) as f), Some ((_, cb) as b) -> Some (if cf <= cb then f else b)

let scan_entry t r =
  let plan = Plan.scan r in
  (plan, t.model.Cost.Cost_model.scan_cost t.env r)
