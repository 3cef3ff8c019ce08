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

type sampling = { sample_size : int; fallback : float; seed : int }

let hyper_sampling = { sample_size = 1_000; fallback = 0.002; seed = 271 }
let dbms_a_sampling = { sample_size = 5_000; fallback = 0.0004; seed = 577 }

(* Evaluating the whole conjunction on one sample captures intra-table
   correlations — the reason these two systems dominate Table 1.

   A sample is shared by every alias of its table. Each relation's
   estimate is kept, and the samples are dropped once every relation of
   the graph has one: an instance then holds [n_relations] floats, not
   row ids, and a later call returns the kept estimate rather than
   drawing again from the advanced PRNG. *)
let sample_base { sample_size; fallback; seed } ctx =
  let prng = Util.Prng.create seed in
  let samples : (string, Dbstats.Sample.t) Hashtbl.t = Hashtbl.create 16 in
  let estimates = Array.make (QG.n_relations ctx.graph) Float.nan in
  let missing = ref (Array.length estimates) in
  let estimate rel =
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
  in
  fun rel ->
    if Float.is_nan estimates.(rel) then begin
      estimates.(rel) <- estimate rel;
      decr missing;
      if !missing = 0 then Hashtbl.reset samples
    end;
    estimates.(rel)

(* ------------------------------------------------------------------ *)
(* Systems                                                              *)

type parts = {
  name : string;
  base : int -> float;
  edge_selectivity : QG.edge -> float;
  combine : Estimator.combine;
  rounding : Estimator.rounding;
}

let build ctx p =
  Estimator.compositional ~name:p.name ~graph:ctx.graph ~base:p.base
    ~edge_selectivity:p.edge_selectivity ~combine:p.combine ~rounding:p.rounding ()

let textbook analyze ctx ~exact =
  Estimator.textbook_edge_selectivity ~dom:(dom_function analyze ctx ~exact)

let postgres_parts ?(true_distinct = false) analyze ctx =
  {
    name = (if true_distinct then "PostgreSQL (true distinct)" else "PostgreSQL");
    base = stats_base analyze ctx;
    edge_selectivity = textbook analyze ctx ~exact:true_distinct;
    combine = Estimator.Independence;
    rounding = Estimator.Clamp_one;
  }

let postgres ?true_distinct analyze ctx = build ctx (postgres_parts ?true_distinct analyze ctx)

let hyper_parts analyze ctx =
  {
    name = "HyPer";
    base = sample_base hyper_sampling ctx;
    edge_selectivity = textbook analyze ctx ~exact:true;
    combine = Estimator.Independence;
    rounding = Estimator.Clamp_one;
  }

let hyper analyze ctx = build ctx (hyper_parts analyze ctx)

let dbms_a_damping = 0.85

let dbms_a_damped_parts ~name damping analyze ctx =
  {
    name;
    base = sample_base dbms_a_sampling ctx;
    edge_selectivity = textbook analyze ctx ~exact:true;
    combine = Estimator.Backoff damping;
    rounding = Estimator.Clamp_one;
  }

let dbms_a_damped damping analyze ctx =
  build ctx
    (dbms_a_damped_parts
       ~name:(Printf.sprintf "DBMS A (damping %.2f)" damping)
       damping analyze ctx)

let dbms_a_parts analyze ctx = dbms_a_damped_parts ~name:"DBMS A" dbms_a_damping analyze ctx

let dbms_a analyze ctx = build ctx (dbms_a_parts analyze ctx)

let coarse_analyze db =
  Analyze.create ~seed:99 ~sample_size:2_000 ~buckets:10 ~mcv_entries:5 db

(* DBMS B: per-attribute uniformity with no MCVs for string equality,
   crude magic constants, an extra per-join fudge factor, and
   floor-to-integer rounding — the paper's "frequently estimates 1 row
   beyond 2 joins" system. *)
let dbms_b_parts coarse ctx =
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
  let textbook = textbook coarse ctx ~exact:false in
  {
    name = "DBMS B";
    base;
    edge_selectivity = (fun e -> 0.35 *. textbook e);
    combine = Estimator.Independence;
    rounding = Estimator.Floor_one;
  }

let dbms_b coarse ctx = build ctx (dbms_b_parts coarse ctx)

(* DBMS C: optimistic magic constants and a per-atom selectivity floor —
   correct medians, a heavy overestimation tail. *)
let dbms_c_parts analyze ctx =
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
  {
    name = "DBMS C";
    base;
    edge_selectivity = textbook analyze ctx ~exact:false;
    combine = Estimator.Independence;
    rounding = Estimator.Clamp_one;
  }

let dbms_c analyze ctx = build ctx (dbms_c_parts analyze ctx)
