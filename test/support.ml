(* Shared fixtures and generators for the test suite: a tiny seeded IMDB
   database, randomly generated micro-databases with random join queries
   over them, and a brute-force join evaluator (COUNT and MIN) to check
   exact components and executor answers against. *)

module QG = Query.Query_graph
module Bitset = Util.Bitset

(* One small IMDB instance shared by all tests that need realistic data
   (generated once, ~1600 rows total). *)
let imdb = lazy (Datagen.Imdb_gen.generate ~seed:7 ~scale:0.0004 ())

(* A mid-sized instance for statistics-sensitive tests. *)
let imdb_mid = lazy (Datagen.Imdb_gen.generate ~seed:7 ~scale:0.002 ())

let tpch = lazy (Datagen.Tpch_gen.generate ~scale:0.2 ())

let fresh_imdb ?(seed = 7) ?(scale = 0.02) () =
  Datagen.Imdb_gen.generate ~seed ~scale ()

(* ------------------------------------------------------------------ *)
(* Random micro-databases                                              *)

(* [k] tables named t0..t{k-1}; each has an [id] PK (1..rows), one
   foreign key into every other table (with NULLs), and a small-domain
   [val] column for selections. *)
let micro_db prng ~tables ~rows =
  let db = Storage.Database.create () in
  for i = 0 to tables - 1 do
    let fk_cols =
      List.init tables (fun j ->
          if j = i then None
          else
            Some
              (Storage.Column.of_ints
                 ~name:(Printf.sprintf "fk%d" j)
                 (Array.init rows (fun _ ->
                      if Util.Prng.chance prng 0.15 then None
                      else Some (1 + Util.Prng.int prng rows)))))
      |> List.filter_map Fun.id
    in
    let columns =
      Array.of_list
        (Storage.Column.of_ints ~name:"id"
           (Array.init rows (fun r -> Some (r + 1)))
        :: Storage.Column.of_ints ~name:"v"
             (Array.init rows (fun _ -> Some (Util.Prng.int prng 5)))
        :: fk_cols)
    in
    let fk_names =
      List.init tables (fun j -> if j = i then None else Some (Printf.sprintf "fk%d" j))
      |> List.filter_map Fun.id
    in
    Storage.Database.add_table db
      (Storage.Table.create ~name:(Printf.sprintf "t%d" i) ~pk:"id" ~fks:fk_names
         columns)
  done;
  db

(* A random connected query over a micro database: a spanning tree of
   FK->PK edges plus optional extra edges (which make it cyclic), and a
   random [v] selection on some relations. *)
let micro_query prng db ~relations ~extra_edges =
  let rels =
    Array.init relations (fun idx ->
        let table =
          Storage.Database.find_table db (Printf.sprintf "t%d" idx)
        in
        let preds =
          if Util.Prng.chance prng 0.6 then
            [
              Query.Predicate.Cmp
                {
                  col = Storage.Table.column_index table "v";
                  op =
                    (if Util.Prng.bool prng then Query.Predicate.Le
                     else Query.Predicate.Ge);
                  code = Util.Prng.int prng 5;
                };
            ]
          else []
        in
        { QG.idx; alias = Printf.sprintf "t%d" idx; table; preds })
  in
  let fk_edge a b =
    (* a.fk_b = b.id *)
    {
      QG.left = a;
      left_col = Storage.Table.column_index rels.(a).QG.table (Printf.sprintf "fk%d" b);
      right = b;
      right_col = Storage.Table.column_index rels.(b).QG.table "id";
      pk_side = Some `Right;
    }
  in
  let tree =
    List.init (relations - 1) (fun i ->
        let child = i + 1 in
        let parent = Util.Prng.int prng (i + 1) in
        fk_edge child parent)
  in
  let extras =
    List.init extra_edges (fun _ ->
        let a = Util.Prng.int prng relations in
        let b = Util.Prng.int prng relations in
        if a = b then None else Some (fk_edge a b))
    |> List.filter_map Fun.id
  in
  QG.create ~name:"micro" rels (tree @ extras)

(* Every joined tuple of a relation subset, by nested loops over the
   filtered rows: relations are bound in index order and each edge is
   checked once both its ends are bound. [f] sees the row bound to each
   member (indexed by relation). Only for small inputs. *)
let brute_force_iter graph subset f =
  let members = Array.of_list (Bitset.to_list subset) in
  let rows =
    Array.map
      (fun r ->
        let relation = QG.relation graph r in
        let pred = Query.Predicate.compile relation.QG.table relation.QG.preds in
        let n = Storage.Table.row_count relation.QG.table in
        Array.of_list (List.filter pred (List.init n Fun.id)))
      members
  in
  let value rel col row =
    Storage.Column.get (Storage.Table.column (QG.relation graph rel).QG.table col) row
  in
  (* The edges to check when member [k] is bound: those whose other end
     is an earlier member. *)
  let checks =
    Array.map
      (fun r ->
        List.filter
          (fun (e : QG.edge) ->
            let other = if e.QG.left = r then e.QG.right else e.QG.left in
            (e.QG.left = r || e.QG.right = r) && Bitset.mem other subset && other < r)
          (QG.edges graph))
      members
  in
  let bound = Array.make (QG.n_relations graph) (-1) in
  let rec loop k =
    if k = Array.length members then f bound
    else
      Array.iter
        (fun row ->
          bound.(members.(k)) <- row;
          if
            List.for_all
              (fun (e : QG.edge) ->
                let l = value e.QG.left e.QG.left_col bound.(e.QG.left) in
                let r = value e.QG.right e.QG.right_col bound.(e.QG.right) in
                l <> Storage.Value.null_code && l = r)
              checks.(k)
          then loop (k + 1))
        rows.(k)
  in
  loop 0

(* Exact result size of the join of a relation subset. *)
let brute_force_count graph subset =
  let count = ref 0 in
  brute_force_iter graph subset (fun _ -> incr count);
  !count

(* COUNT and MIN of each [(rel, col)] projection over the full join, the
   way SQL defines them: MIN ignores NULLs and is NULL over no value. *)
let brute_force_mins graph projections =
  let count = ref 0 in
  let best = Array.make (List.length projections) Storage.Value.null_code in
  let columns =
    List.map
      (fun (rel, col) -> (rel, Storage.Table.column (QG.relation graph rel).QG.table col))
      projections
  in
  brute_force_iter graph (QG.full_set graph) (fun bound ->
      incr count;
      List.iteri
        (fun k (rel, column) ->
          let v = Storage.Column.get column bound.(rel) in
          if v <> Storage.Value.null_code
             && (best.(k) = Storage.Value.null_code || v < best.(k))
          then best.(k) <- v)
        columns);
  ( !count,
    List.mapi
      (fun k (_, column) ->
        if best.(k) = Storage.Value.null_code then Storage.Value.Null
        else Storage.Column.code_value column best.(k))
      columns )

let qcheck_case ?(count = 30) ~name arbitrary law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arbitrary law)

(* One of the five emulated systems by display name, through the
   registry; DBMS B gets its own cold coarse ANALYZE. *)
let system_estimator db analyze graph name =
  Core.Registry.find_exn Core.Registry.estimators name
    {
      Core.Registry.db;
      analyze;
      coarse = Cardest.Systems.coarse_analyze db;
      graph;
      truth = Util.Once.make (fun () -> Cardest.True_card.compute graph);
      feedback = None;
    }
