module QG = Query.Query_graph
module Bitset = Util.Bitset

type t = {
  sampled : Storage.Database.t;
  rates : (string, float) Hashtbl.t;
}

let subset_table prng rate table =
  let n = Storage.Table.row_count table in
  let keep = ref [] in
  for row = n - 1 downto 0 do
    if Util.Prng.chance prng rate then keep := row :: !keep
  done;
  let rows = Array.of_list !keep in
  Storage.Table.create ~name:(Storage.Table.name table)
    (Array.map
       (fun c -> Storage.Column.take c rows)
       (Storage.Table.columns table))

(* Tables above [dimension_threshold] rows are Bernoulli-sampled at
   [rate]; smaller ones are kept whole. *)
let seed = 1729
let rate = 0.1
let dimension_threshold = 1000

let create db =
  let prng = Util.Prng.create seed in
  let sampled = Storage.Database.create () in
  let rates = Hashtbl.create 32 in
  List.iter
    (fun name ->
      let table = Storage.Database.find_table db name in
      let r =
        if Storage.Table.row_count table <= dimension_threshold then 1.0 else rate
      in
      Hashtbl.add rates name r;
      let t = if r >= 1.0 then table else subset_table prng r table in
      Storage.Database.add_table sampled t)
    (Storage.Database.table_names db);
  { sampled; rates }

let sampling_rate t name =
  match Hashtbl.find_opt t.rates name with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Join_sample.sampling_rate: unknown table %s" name)

let sampled_db t = t.sampled

(* Rebind the query graph's relations against the sampled tables; the
   predicates reference column indexes, which are identical, and
   dictionary codes are shared with the original columns (the sample
   copies columns, dictionaries included), so predicates transfer
   as-is. *)
let rebind t graph =
  let relations =
    Array.map
      (fun (r : QG.relation) ->
        {
          r with
          QG.table =
            Storage.Database.find_table t.sampled (Storage.Table.name r.QG.table);
        })
      (QG.relations graph)
  in
  QG.create ~name:(QG.name graph ^ "-sample") relations (QG.edges graph)

let scale t graph s =
  Bitset.fold
    (fun r acc ->
      acc /. sampling_rate t (Storage.Table.name (QG.relation graph r).QG.table))
    s 1.0

let estimator t graph =
  let sampled_graph = rebind t graph in
  let counts = True_card.compute sampled_graph in
  let scale s = scale t graph s in
  let subset s =
    let sampled_count = True_card.card counts s in
    let factor = scale s in
    if sampled_count > 0.0 then sampled_count *. factor
    else
      (* Zero sampled rows: the sample cannot resolve below one row per
         scale factor; report the resolution limit, clamped to >= 1. *)
      Float.max 1.0 (0.5 *. factor)
  in
  Estimator.of_function ~name:"join sampling" ~base:(fun r -> subset (Bitset.singleton r)) subset
