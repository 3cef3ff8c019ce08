module Bitset = Util.Bitset
module QG = Query.Query_graph
module Analyze = Dbstats.Analyze
module CS = Dbstats.Column_stats

type context = {
  db : Storage.Database.t;
  graph : QG.t;
}

let names = [ "PostgreSQL"; "DBMS A"; "DBMS B"; "DBMS C"; "HyPer" ]

let table_of ctx rel = (QG.relation ctx.graph rel).QG.table

let rows_of ctx rel = float_of_int (Storage.Table.row_count (table_of ctx rel))

let column_stats analyze ctx ~rel ~col =
  Analyze.column analyze ~table:(Storage.Table.name (table_of ctx rel)) ~col

let dom_function analyze ctx ~exact ~rel ~col =
  let cs = column_stats analyze ctx ~rel ~col in
  if exact then cs.CS.distinct_exact else cs.CS.distinct_sampled

(* ------------------------------------------------------------------ *)
(* Statistics-based base estimation (PostgreSQL style)                  *)

let stats_base ?(magic = Selectivity.pg_magic) analyze ctx rel =
  let relation = QG.relation ctx.graph rel in
  let table = relation.QG.table in
  let stats_of col =
    Analyze.column analyze ~table:(Storage.Table.name table) ~col
  in
  let sel =
    Selectivity.conjunction ~stats_of ~table ~magic relation.QG.preds
  in
  sel *. rows_of ctx rel

(* ------------------------------------------------------------------ *)
(* Sample-based base estimation (HyPer / DBMS A style)                  *)

(* Evaluating the whole conjunction on one sample captures intra-table
   correlations — the reason these two systems dominate Table 1. *)
let sample_base ~sample_size ~fallback ~seed ctx =
  let prng = Util.Prng.create seed in
  let samples : (string, Dbstats.Sample.t) Hashtbl.t = Hashtbl.create 16 in
  fun rel ->
    let relation = QG.relation ctx.graph rel in
    let table = relation.QG.table in
    let name = Storage.Table.name table in
    let sample =
      match Hashtbl.find_opt samples name with
      | Some s -> s
      | None ->
          let s = Dbstats.Sample.take prng table ~size:sample_size in
          Hashtbl.add samples name s;
          s
    in
    let pred = Query.Predicate.compile table relation.QG.preds in
    let matches = Dbstats.Sample.evaluate sample table pred in
    let selectivity =
      if matches > 0 then
        float_of_int matches /. float_of_int (Dbstats.Sample.size sample)
      else if relation.QG.preds = [] then 1.0
      else fallback (* zero rows on the sample: magic constant *)
    in
    selectivity *. rows_of ctx rel

(* ------------------------------------------------------------------ *)
(* Systems                                                              *)

let postgres ?(true_distinct = false) analyze ctx =
  let name = if true_distinct then "PostgreSQL (true distinct)" else "PostgreSQL" in
  Estimator.compositional ~name ~graph:ctx.graph
    ~base:(stats_base analyze ctx)
    ~edge_selectivity:
      (Estimator.textbook_edge_selectivity
         ~dom:(dom_function analyze ctx ~exact:true_distinct))
    ~combine:Estimator.Independence ~rounding:Estimator.Clamp_one ()

let hyper analyze ctx =
  Estimator.compositional ~name:"HyPer" ~graph:ctx.graph
    ~base:(sample_base ~sample_size:1_000 ~fallback:0.002 ~seed:271 ctx)
    ~edge_selectivity:
      (Estimator.textbook_edge_selectivity
         ~dom:(dom_function analyze ctx ~exact:true))
    ~combine:Estimator.Independence ~rounding:Estimator.Clamp_one ()

let dbms_a_damping = 0.85

let dbms_a_damped damping analyze ctx =
  Estimator.compositional
    ~name:(Printf.sprintf "DBMS A (damping %.2f)" damping)
    ~graph:ctx.graph
    ~base:(sample_base ~sample_size:5_000 ~fallback:0.0004 ~seed:577 ctx)
    ~edge_selectivity:
      (Estimator.textbook_edge_selectivity
         ~dom:(dom_function analyze ctx ~exact:true))
    ~combine:(Estimator.Backoff damping) ~rounding:Estimator.Clamp_one ()

let dbms_a analyze ctx =
  { (dbms_a_damped dbms_a_damping analyze ctx) with Estimator.name = "DBMS A" }

let coarse_analyze db =
  Analyze.create ~seed:99 ~sample_size:2_000 ~buckets:10 ~mcv_entries:5 db

(* DBMS B: per-attribute uniformity with no MCVs for string equality,
   crude magic constants, an extra per-join fudge factor, and
   floor-to-integer rounding — the paper's "frequently estimates 1 row
   beyond 2 joins" system. *)
let dbms_b coarse ctx =
  let magic =
    { Selectivity.like_contains = 0.15; like_prefix = 0.25; default_range = 0.4 }
  in
  let base rel =
    let relation = QG.relation ctx.graph rel in
    let table = relation.QG.table in
    let stats_of col = Analyze.column coarse ~table:(Storage.Table.name table) ~col in
    let atom_sel (a : Query.Predicate.atom) =
      match a with
      | Query.Predicate.Cmp { op = Query.Predicate.Eq; col; _ }
        when Storage.Column.dict (Storage.Table.column table col) <> None ->
          (* Uniformity over the (under-)estimated distinct count;
             ignores skew entirely. *)
          1.0 /. Float.max 1.0 (stats_of col).CS.distinct_sampled
      | _ -> Selectivity.atom ~stats:(stats_of (Option.value ~default:0 (Query.Predicate.atom_column a))) ~table ~magic a
    in
    let sel = List.fold_left (fun acc a -> acc *. atom_sel a) 1.0 relation.QG.preds in
    sel *. rows_of ctx rel
  in
  let textbook =
    Estimator.textbook_edge_selectivity
      ~dom:(dom_function coarse ctx ~exact:false)
  in
  Estimator.compositional ~name:"DBMS B" ~graph:ctx.graph ~base
    ~edge_selectivity:(fun e -> 0.35 *. textbook e)
    ~combine:Estimator.Independence ~rounding:Estimator.Floor_one ()

(* DBMS C: optimistic magic constants and a per-atom selectivity floor —
   correct medians, a heavy overestimation tail. *)
let dbms_c analyze ctx =
  let magic =
    { Selectivity.like_contains = 0.25; like_prefix = 0.3; default_range = 0.5 }
  in
  let base rel =
    let relation = QG.relation ctx.graph rel in
    let table = relation.QG.table in
    let stats_of col = Analyze.column analyze ~table:(Storage.Table.name table) ~col in
    let sel =
      List.fold_left
        (fun acc a ->
          match Query.Predicate.atom_column a with
          | Some col ->
              let s = Selectivity.atom ~stats:(stats_of col) ~table ~magic a in
              acc *. Float.max s 0.02
          | None -> acc *. 0.02)
        1.0 relation.QG.preds
    in
    sel *. rows_of ctx rel
  in
  Estimator.compositional ~name:"DBMS C" ~graph:ctx.graph ~base
    ~edge_selectivity:
      (Estimator.textbook_edge_selectivity
         ~dom:(dom_function analyze ctx ~exact:false))
    ~combine:Estimator.Independence ~rounding:Estimator.Clamp_one ()
