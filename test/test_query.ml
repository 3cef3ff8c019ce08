(* Tests for the query library: LIKE matching, predicate compilation
   (including three-valued NULL behaviour), and query-graph
   connectivity machinery. *)

module P = Query.Predicate
module QG = Query.Query_graph
module Bitset = Util.Bitset

(* --- Like_match -------------------------------------------------------- *)

let test_like_cases () =
  let m pattern s = Query.Like_match.matches ~pattern s in
  Alcotest.(check bool) "exact" true (m "abc" "abc");
  Alcotest.(check bool) "exact miss" false (m "abc" "abd");
  Alcotest.(check bool) "contains" true (m "%pro%" "(co-production)");
  Alcotest.(check bool) "contains miss" false (m "%pro%" "(presents)");
  Alcotest.(check bool) "prefix" true (m "The %" "The Winter Song");
  Alcotest.(check bool) "suffix" true (m "%)" "(voice)");
  Alcotest.(check bool) "underscore" true (m "c_t" "cat");
  Alcotest.(check bool) "underscore exact len" false (m "c_t" "cart");
  Alcotest.(check bool) "pct matches empty" true (m "a%" "a");
  Alcotest.(check bool) "double pct" true (m "%%x%%" "ax");
  Alcotest.(check bool) "empty pattern empty string" true (m "" "");
  Alcotest.(check bool) "empty pattern" false (m "" "a");
  Alcotest.(check bool) "multi wildcard" true (m "%a%b%" "xxaxyxb");
  Alcotest.(check bool) "case sensitive" false (m "the %" "The X")

let test_prefix_pattern () =
  Alcotest.(check bool) "prefix" true (Query.Like_match.is_prefix_pattern "abc%");
  Alcotest.(check bool) "contains" false (Query.Like_match.is_prefix_pattern "%abc%");
  Alcotest.(check bool) "inner pct" false (Query.Like_match.is_prefix_pattern "a%c%");
  Alcotest.(check bool) "underscore" false (Query.Like_match.is_prefix_pattern "a_c%");
  Alcotest.(check bool) "bare" false (Query.Like_match.is_prefix_pattern "abc")

(* --- Predicate compilation ----------------------------------------------- *)

let pred_table =
  Storage.Table.create ~name:"p"
    [|
      Storage.Column.of_ints ~name:"num" [| Some 10; Some 20; None; Some 30 |];
      Storage.Column.of_strings ~name:"txt"
        [| Some "alpha"; Some "beta"; Some "alpha"; None |];
    |]

let rows_matching preds =
  let f = P.compile pred_table preds in
  List.filter f [ 0; 1; 2; 3 ]

let test_pred_cmp () =
  Alcotest.(check (list int)) "eq" [ 1 ] (rows_matching [ P.Cmp { col = 0; op = P.Eq; code = 20 } ]);
  Alcotest.(check (list int)) "ge skips null" [ 1; 3 ]
    (rows_matching [ P.Cmp { col = 0; op = P.Ge; code = 20 } ]);
  Alcotest.(check (list int)) "ne skips null" [ 0; 3 ]
    (rows_matching [ P.Cmp { col = 0; op = P.Ne; code = 20 } ])

let test_pred_between_in () =
  Alcotest.(check (list int)) "between" [ 0; 1 ]
    (rows_matching [ P.Between { col = 0; lo = 10; hi = 20 } ]);
  Alcotest.(check (list int)) "in" [ 0; 3 ]
    (rows_matching [ P.In { col = 0; codes = [ 10; 30 ] } ]);
  Alcotest.(check (list int)) "empty in" [] (rows_matching [ P.In { col = 0; codes = [] } ])

let test_pred_null () =
  Alcotest.(check (list int)) "is null" [ 2 ]
    (rows_matching [ P.Is_null { col = 0; negated = false } ]);
  Alcotest.(check (list int)) "is not null" [ 0; 1; 3 ]
    (rows_matching [ P.Is_null { col = 0; negated = true } ])

let test_pred_like () =
  Alcotest.(check (list int)) "like" [ 0; 2 ]
    (rows_matching [ P.Like { col = 1; pattern = "al%"; negated = false } ]);
  Alcotest.(check (list int)) "not like skips null" [ 1 ]
    (rows_matching [ P.Like { col = 1; pattern = "al%"; negated = true } ])

let test_pred_str_cmp () =
  Alcotest.(check (list int)) "str >=" [ 1 ]
    (rows_matching [ P.Str_cmp { col = 1; op = P.Ge; value = "b" } ]);
  Alcotest.(check (list int)) "str <" [ 0; 2 ]
    (rows_matching [ P.Str_cmp { col = 1; op = P.Lt; value = "b" } ])

let test_pred_or_and_conjunction () =
  Alcotest.(check (list int)) "or" [ 0; 1; 2 ]
    (rows_matching
       [
         P.Or
           [
             P.Cmp { col = 0; op = P.Eq; code = 10 };
             P.Like { col = 1; pattern = "%a"; negated = false };
           ];
       ]);
  Alcotest.(check (list int)) "conjunction" [ 0 ]
    (rows_matching
       [
         P.Cmp { col = 0; op = P.Le; code = 20 };
         P.Like { col = 1; pattern = "alpha"; negated = false };
       ]);
  Alcotest.(check (list int)) "const false" [] (rows_matching [ P.Const_false ])

let test_pred_sentinel_code () =
  (* The binder's missing-string sentinel: Eq matches nothing, Ne matches
     all non-NULL rows. *)
  Alcotest.(check (list int)) "eq missing" []
    (rows_matching [ P.Cmp { col = 1; op = P.Eq; code = -1 } ]);
  Alcotest.(check (list int)) "ne missing" [ 0; 1; 2 ]
    (rows_matching [ P.Cmp { col = 1; op = P.Ne; code = -1 } ])

let test_atom_column () =
  Alcotest.(check (option int)) "cmp" (Some 3)
    (P.atom_column (P.Cmp { col = 3; op = P.Eq; code = 0 }));
  Alcotest.(check (option int)) "or same col" (Some 1)
    (P.atom_column
       (P.Or
          [
            P.Like { col = 1; pattern = "a"; negated = false };
            P.Is_null { col = 1; negated = false };
          ]));
  Alcotest.(check (option int)) "const false" None (P.atom_column P.Const_false)

(* --- Query graph ----------------------------------------------------------- *)

(* A small chain graph t0 - t1 - t2 over the micro database. *)
let chain_graph () =
  let prng = Util.Prng.create 4 in
  let db = Support.micro_db prng ~tables:3 ~rows:10 in
  let rels =
    Array.init 3 (fun idx ->
        let table = Storage.Database.find_table db (Printf.sprintf "t%d" idx) in
        { QG.idx; alias = Printf.sprintf "t%d" idx; table; preds = [] })
  in
  let edge a b =
    {
      QG.left = a;
      left_col = Storage.Table.column_index rels.(a).QG.table (Printf.sprintf "fk%d" b);
      right = b;
      right_col = 0;
      pk_side = Some `Right;
    }
  in
  QG.create ~name:"chain" rels [ edge 0 1; edge 1 2 ]

let test_graph_connectivity () =
  let g = chain_graph () in
  Alcotest.(check bool) "single" true (QG.is_connected g (Bitset.singleton 1));
  Alcotest.(check bool) "adjacent pair" true (QG.is_connected g (Bitset.of_list [ 0; 1 ]));
  Alcotest.(check bool) "gap" false (QG.is_connected g (Bitset.of_list [ 0; 2 ]));
  Alcotest.(check bool) "full" true (QG.is_connected g (Bitset.full 3));
  Alcotest.(check bool) "empty" false (QG.is_connected g Bitset.empty)

let test_graph_neighbors () =
  let g = chain_graph () in
  Alcotest.(check int) "middle" (Bitset.of_list [ 0; 2 ]) (QG.adjacency g 1);
  Alcotest.(check int) "subset neighbors"
    (Bitset.singleton 2)
    (QG.neighbors g (Bitset.of_list [ 0; 1 ]))

let test_graph_connected_subsets () =
  let g = chain_graph () in
  (* chain of 3: {0},{1},{2},{01},{12},{012} *)
  Alcotest.(check int) "chain subset count" 6
    (Array.length (QG.connected_subsets g))

let test_graph_edges_between_orientation () =
  let g = chain_graph () in
  match QG.edges_between g (Bitset.singleton 1) (Bitset.singleton 0) with
  | [ e ] ->
      Alcotest.(check int) "left in first set" 1 e.QG.left;
      Alcotest.(check bool) "pk flipped" true (e.QG.pk_side = Some `Left)
  | other -> Alcotest.failf "expected 1 edge, got %d" (List.length other)

let test_graph_disconnected_rejected () =
  let prng = Util.Prng.create 4 in
  let db = Support.micro_db prng ~tables:3 ~rows:5 in
  let rels =
    Array.init 3 (fun idx ->
        let table = Storage.Database.find_table db (Printf.sprintf "t%d" idx) in
        { QG.idx; alias = Printf.sprintf "t%d" idx; table; preds = [] })
  in
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Query_graph.create: query lonely is disconnected")
    (fun () ->
      ignore
        (QG.create ~name:"lonely" rels
           [
             {
               QG.left = 0;
               left_col = 2;
               right = 1;
               right_col = 0;
               pk_side = Some `Right;
             };
           ]))

let test_graph_join_columns () =
  let g = chain_graph () in
  (* Relation 1 joins via fk2 (to 2) and id (from 0). *)
  Alcotest.(check (list int)) "join columns of middle"
    [ 0; Storage.Table.column_index (QG.relation g 1).QG.table "fk2" ]
    (QG.join_columns g 1)

let edges_between_symmetric =
  Support.qcheck_case ~name:"edges_between symmetric up to orientation"
    QCheck.(pair small_int (int_range 2 5))
    (fun (seed, relations) ->
      let prng = Util.Prng.create seed in
      let db = Support.micro_db prng ~tables:relations ~rows:5 in
      let g = Support.micro_query prng db ~relations ~extra_edges:1 in
      let full = Bitset.full relations in
      (* Every split: same number of edges in both orientations, with
         left always inside the first argument. *)
      let ok = ref true in
      Bitset.subsets_iter full (fun s1 ->
          let s2 = Bitset.diff full s1 in
          let fwd = QG.edges_between g s1 s2 in
          let bwd = QG.edges_between g s2 s1 in
          if List.length fwd <> List.length bwd then ok := false;
          List.iter
            (fun (e : QG.edge) ->
              if not (Bitset.mem e.QG.left s1 && Bitset.mem e.QG.right s2) then
                ok := false)
            fwd);
      !ok)

let predicate_compile_matches_interpreter =
  (* Compiled predicates agree with a naive per-row interpretation. *)
  Support.qcheck_case ~name:"compiled predicate = naive interpretation"
    QCheck.(pair small_int (int_range 0 4))
    (fun (seed, shape) ->
      let prng = Util.Prng.create (seed + 77) in
      let db = Support.micro_db prng ~tables:1 ~rows:40 in
      let table = Storage.Database.find_table db "t0" in
      let col = Storage.Table.column_index table "v" in
      let c = Util.Prng.int prng 5 in
      let atom =
        match shape with
        | 0 -> P.Cmp { col; op = P.Eq; code = c }
        | 1 -> P.Cmp { col; op = P.Le; code = c }
        | 2 -> P.In { col; codes = [ c; (c + 2) mod 5 ] }
        | 3 -> P.Between { col; lo = 1; hi = c }
        | _ ->
            P.Or
              [ P.Cmp { col; op = P.Eq; code = c }; P.Is_null { col; negated = false } ]
      in
      let compiled = P.compile table [ atom ] in
      let data = Storage.Column.to_codes (Storage.Table.column table col) in
      let null = Storage.Value.null_code in
      let rec interpret a row =
        match a with
        | P.Cmp { op = P.Eq; code; _ } -> data.(row) <> null && data.(row) = code
        | P.Cmp { op = P.Le; code; _ } -> data.(row) <> null && data.(row) <= code
        | P.In { codes; _ } -> data.(row) <> null && List.mem data.(row) codes
        | P.Between { lo; hi; _ } ->
            data.(row) <> null && data.(row) >= lo && data.(row) <= hi
        | P.Is_null { negated; _ } -> (data.(row) = null) <> negated
        | P.Or atoms -> List.exists (fun a -> interpret a row) atoms
        | _ -> assert false
      in
      List.for_all
        (fun row -> compiled row = interpret atom row)
        (List.init 40 (fun i -> i)))

let star_subsets =
  Support.qcheck_case ~name:"star graph connected subset count"
    (QCheck.int_range 2 6)
    (fun leaves ->
      let prng = Util.Prng.create 4 in
      let db = Support.micro_db prng ~tables:(leaves + 1) ~rows:5 in
      let rels =
        Array.init (leaves + 1) (fun idx ->
            let table = Storage.Database.find_table db (Printf.sprintf "t%d" idx) in
            { QG.idx; alias = Printf.sprintf "t%d" idx; table; preds = [] })
      in
      (* hub = relation 0; each leaf i joins hub.fk_i = leaf.id *)
      let edges =
        List.init leaves (fun i ->
            let leaf = i + 1 in
            {
              QG.left = 0;
              left_col =
                Storage.Table.column_index rels.(0).QG.table
                  (Printf.sprintf "fk%d" leaf);
              right = leaf;
              right_col = 0;
              pk_side = Some `Right;
            })
      in
      let g = QG.create ~name:"star" rels edges in
      (* hub + any leaf set: 2^leaves; single leaves: leaves *)
      Array.length (QG.connected_subsets g) = (1 lsl leaves) + leaves)

(* Brute-force plan space: every connected mask by a scan of all 2^n
   masks, ordered by (size, mask), and for each the splits DPsub's
   submask loop accepts — both halves connected and joined by an edge —
   in its visiting order, outer half descending. *)
let brute_force_space g =
  let n = QG.n_relations g in
  let masks = List.init (Bitset.full n) (fun m -> m + 1) in
  let subsets = Array.of_list (List.filter (QG.is_connected g) masks) in
  Array.sort (fun a b -> compare (Bitset.cardinal a, a) (Bitset.cardinal b, b)) subsets;
  let splits s =
    let out = ref [] in
    Bitset.subsets_iter s (fun s1 ->
        let s2 = Bitset.diff s s1 in
        if
          QG.is_connected g s1 && QG.is_connected g s2
          && not (Bitset.disjoint (QG.neighbors g s1) s2)
        then out := (s1, s2) :: !out);
    List.rev !out
  in
  (subsets, splits)

(* The enumerated space, with split ordinals mapped back to masks. *)
let space_matches_brute_force g =
  let subsets, brute_splits = brute_force_space g in
  let got = QG.connected_subsets g in
  got = subsets
  && Array.for_all Fun.id
       (Array.mapi
          (fun o s ->
            let pairs = ref [] in
            QG.iter_splits g o (fun o1 o2 -> pairs := (got.(o1), got.(o2)) :: !pairs);
            QG.subset_ordinal g s = Some o && List.rev !pairs = brute_splits s)
          got)

let test_plan_space_job () =
  let db = Lazy.force Support.imdb in
  List.iter
    (fun (q : Workload.Job.query) ->
      let g =
        (Sqlfront.Binder.bind_sql db ~name:q.Workload.Job.name q.Workload.Job.sql)
          .Sqlfront.Binder.graph
      in
      if not (space_matches_brute_force g) then
        Alcotest.failf "plan space of %s differs from brute force" q.Workload.Job.name)
    Workload.Job.all

let plan_space_random =
  Support.qcheck_case ~count:60 ~name:"plan space = brute force (random cyclic)"
    QCheck.(triple small_int (int_range 1 8) (int_range 0 6))
    (fun (seed, relations, extra_edges) ->
      let prng = Util.Prng.create seed in
      let db = Support.micro_db prng ~tables:relations ~rows:5 in
      let g = Support.micro_query prng db ~relations ~extra_edges in
      space_matches_brute_force g
      && List.for_all
           (fun mask -> (QG.subset_ordinal g mask <> None) = QG.is_connected g mask)
           (List.init (1 lsl relations) Fun.id)
      && (relations < 2 || QG.subset_ordinal g (Bitset.full relations) <> None))

(* Reference LIKE implementation: naive exponential recursion. Safe for
   the tiny strings qcheck generates. *)
let rec reference_like p s pi si =
  if pi = String.length p then si = String.length s
  else
    match p.[pi] with
    | '%' ->
        let rec try_skip k =
          k <= String.length s && (reference_like p s (pi + 1) k || try_skip (k + 1))
        in
        try_skip si
    | '_' -> si < String.length s && reference_like p s (pi + 1) (si + 1)
    | c -> si < String.length s && s.[si] = c && reference_like p s (pi + 1) (si + 1)

let like_matches_reference =
  let chars = [ 'a'; 'b'; '%'; '_' ] in
  let gen n = QCheck.Gen.(string_size ~gen:(oneofl chars) (0 -- n)) in
  Support.qcheck_case ~count:200 ~name:"LIKE agrees with naive reference"
    (QCheck.make QCheck.Gen.(pair (gen 6) (gen 8)))
    (fun (pattern, s) ->
      (* The subject must not contain wildcards. *)
      let s = String.map (fun c -> if c = '%' || c = '_' then 'a' else c) s in
      Query.Like_match.matches ~pattern s = reference_like pattern s 0 0)

(* Connectivity and neighbours by a breadth-first search over the edge
   list, sharing no code with [Query_graph]'s bit loops. *)
let reference_neighbors g s =
  List.fold_left
    (fun acc (e : QG.edge) ->
      let acc =
        if Bitset.mem e.left s && not (Bitset.mem e.right s) then Bitset.add e.right acc
        else acc
      in
      if Bitset.mem e.right s && not (Bitset.mem e.left s) then Bitset.add e.left acc
      else acc)
    Bitset.empty (QG.edges g)

let reference_connected g s =
  if Bitset.is_empty s then false
  else begin
    let seen = Array.make (QG.n_relations g) false in
    let queue = Queue.create () in
    let visit r =
      if Bitset.mem r s && not seen.(r) then begin
        seen.(r) <- true;
        Queue.add r queue
      end
    in
    visit (List.hd (Bitset.to_list s));
    while not (Queue.is_empty queue) do
      let r = Queue.pop queue in
      List.iter
        (fun (e : QG.edge) ->
          if e.left = r then visit e.right;
          if e.right = r then visit e.left)
        (QG.edges g)
    done;
    List.for_all (fun r -> seen.(r)) (Bitset.to_list s)
  end

let connectivity_random =
  Support.qcheck_case ~count:60 ~name:"is_connected and neighbors = reference BFS"
    QCheck.(triple small_int (int_range 1 10) (int_range 0 8))
    (fun (seed, relations, extra_edges) ->
      let prng = Util.Prng.create seed in
      let db = Support.micro_db prng ~tables:relations ~rows:5 in
      let g = Support.micro_query prng db ~relations ~extra_edges in
      List.for_all
        (fun s ->
          QG.is_connected g s = reference_connected g s
          && QG.neighbors g s = reference_neighbors g s)
        (List.init (1 lsl relations) Fun.id))

let suite =
  [
    Alcotest.test_case "LIKE matching" `Quick test_like_cases;
    like_matches_reference;
    Alcotest.test_case "prefix patterns" `Quick test_prefix_pattern;
    Alcotest.test_case "predicate cmp" `Quick test_pred_cmp;
    Alcotest.test_case "predicate between/in" `Quick test_pred_between_in;
    Alcotest.test_case "predicate null" `Quick test_pred_null;
    Alcotest.test_case "predicate like" `Quick test_pred_like;
    Alcotest.test_case "predicate str cmp" `Quick test_pred_str_cmp;
    Alcotest.test_case "predicate or/conjunction" `Quick test_pred_or_and_conjunction;
    Alcotest.test_case "predicate sentinel code" `Quick test_pred_sentinel_code;
    Alcotest.test_case "atom column" `Quick test_atom_column;
    Alcotest.test_case "graph connectivity" `Quick test_graph_connectivity;
    Alcotest.test_case "graph neighbors" `Quick test_graph_neighbors;
    Alcotest.test_case "graph connected subsets" `Quick test_graph_connected_subsets;
    Alcotest.test_case "edges_between orientation" `Quick
      test_graph_edges_between_orientation;
    Alcotest.test_case "disconnected rejected" `Quick test_graph_disconnected_rejected;
    Alcotest.test_case "join columns" `Quick test_graph_join_columns;
    edges_between_symmetric;
    predicate_compile_matches_interpreter;
    star_subsets;
    Alcotest.test_case "plan space = brute force (JOB)" `Quick test_plan_space_job;
    plan_space_random;
    connectivity_random;
  ]
