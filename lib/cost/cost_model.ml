module Bitset = Util.Bitset
module QG = Query.Query_graph

type env = {
  graph : QG.t;
  db : Storage.Database.t;
  card : Bitset.t -> float;
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
}

let table_rows env rel =
  float_of_int (Storage.Table.row_count (QG.relation env.graph rel).QG.table)

let pred_count env rel = List.length (QG.relation env.graph rel).QG.preds

(* Estimated matches an index-NL join retrieves before the inner
   relation's own selection is applied: out / selectivity(inner). The
   inner is a base relation, so [inner_card] is its filtered size. *)
let unfiltered_matches env ~out_card ~inner_card ~inner_rel =
  let filtered = Float.max 1e-9 inner_card in
  let selectivity = filtered /. Float.max 1.0 (table_rows env inner_rel) in
  out_card /. Float.max 1e-9 selectivity

(* ------------------------------------------------------------------ *)
(* C_mm (Section 5.4)                                                  *)

let cmm_tau = 0.2
let cmm_lambda = 2.0

(* n log2 n comparisons, the sort part of a merge join. *)
let sort_cost n =
  let n = Float.max 2.0 n in
  n *. (Float.log n /. Float.log 2.0)

let cmm =
  let scan_cost env rel = cmm_tau *. table_rows env rel in
  let join_cost env algo ~outer:_ ~inner ~outer_cost ~inner_cost ~out_card
      ~outer_card:oc ~inner_card:ic =
    match algo with
    | Plan.Hash_join -> out_card +. outer_cost +. inner_cost
    | Plan.Merge_join ->
        sort_cost oc +. sort_cost ic +. oc +. ic +. out_card +. outer_cost
        +. inner_cost
    | Plan.Nl_join -> (oc *. ic) +. out_card +. outer_cost +. inner_cost
    | Plan.Index_nl_join ->
        let inner_rel = Option.get (Plan.base_rel inner) in
        let lookups =
          Float.max (unfiltered_matches env ~out_card ~inner_card:ic ~inner_rel) oc
        in
        outer_cost +. (cmm_lambda *. lookups)
  in
  { name = "Cmm"; scan_cost; join_cost }

(* ------------------------------------------------------------------ *)
(* PostgreSQL-style disk-oriented model                                *)

type pg_params = {
  seq_page : float;
  random_page : float;
  cpu_tuple : float;
  cpu_index_tuple : float;
  cpu_operator : float;
}

let pg_defaults =
  {
    seq_page = 1.0;
    random_page = 4.0;
    cpu_tuple = 0.01;
    cpu_index_tuple = 0.005;
    cpu_operator = 0.0025;
  }

let tuples_per_page = 64.0

let pg_model ~name p =
  let scan_cost env rel =
    let rows = table_rows env rel in
    let pages = Float.max 1.0 (Float.round (rows /. tuples_per_page)) in
    (pages *. p.seq_page)
    +. (rows *. (p.cpu_tuple +. (float_of_int (pred_count env rel) *. p.cpu_operator)))
  in
  let join_cost env algo ~outer:_ ~inner ~outer_cost ~inner_cost ~out_card
      ~outer_card:oc ~inner_card:ic =
    match algo with
    | Plan.Hash_join ->
        outer_cost +. inner_cost
        +. (ic *. (p.cpu_operator +. p.cpu_tuple)) (* build *)
        +. (oc *. p.cpu_operator) (* probe *)
        +. (out_card *. p.cpu_tuple)
    | Plan.Merge_join ->
        outer_cost +. inner_cost
        +. ((sort_cost oc +. sort_cost ic) *. p.cpu_operator)
        +. ((oc +. ic) *. p.cpu_operator)
        +. (out_card *. p.cpu_tuple)
    | Plan.Nl_join ->
        (* Inner is materialized once, then rescanned in memory. *)
        outer_cost +. inner_cost
        +. (oc *. ic *. p.cpu_operator)
        +. (out_card *. p.cpu_tuple)
    | Plan.Index_nl_join ->
        let inner_rel = Option.get (Plan.base_rel inner) in
        let inner_rows = Float.max 2.0 (table_rows env inner_rel) in
        let descent = p.cpu_index_tuple *. (Float.log inner_rows /. Float.log 2.0) in
        let matches = unfiltered_matches env ~out_card ~inner_card:ic ~inner_rel in
        outer_cost
        +. (oc *. (descent +. p.random_page))
        +. (matches
            *. (p.cpu_tuple +. (0.25 *. p.random_page)
               +. (float_of_int (pred_count env inner_rel) *. p.cpu_operator)))
  in
  { name; scan_cost; join_cost }

let postgres = pg_model ~name:"PostgreSQL" pg_defaults

let tuned =
  pg_model ~name:"tuned"
    {
      pg_defaults with
      cpu_tuple = pg_defaults.cpu_tuple *. 50.0;
      cpu_index_tuple = pg_defaults.cpu_index_tuple *. 50.0;
      cpu_operator = pg_defaults.cpu_operator *. 50.0;
    }

let all = [ postgres; tuned; cmm ]

let by_name name = List.find_opt (fun m -> String.equal m.name name) all

let join_cost_from_env model env algo ~outer ~inner ~outer_cost ~inner_cost =
  let out_card = env.card (Bitset.union outer.Plan.set inner.Plan.set) in
  let outer_card = env.card outer.Plan.set in
  let inner_card = env.card inner.Plan.set in
  model.join_cost env algo ~outer ~inner ~outer_cost ~inner_cost ~out_card ~outer_card
    ~inner_card

let plan_cost model env plan =
  let rec go (t : Plan.t) =
    match t.Plan.op with
    | Plan.Scan rel -> model.scan_cost env rel
    | Plan.Join { algo; outer; inner } ->
        join_cost_from_env model env algo ~outer ~inner ~outer_cost:(go outer)
          ~inner_cost:(go inner)
  in
  go plan
