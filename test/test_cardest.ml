(* Tests for cardinality estimation: the exact True_card oracle (checked
   against brute-force join counting on random databases, including
   cyclic queries), the compositional estimator framework, the PG-style
   selectivity machinery, and the five system emulations. *)

module QG = Query.Query_graph
module Bitset = Util.Bitset

(* --- True_card vs brute force -------------------------------------------- *)

let brute_force_law g =
  let tc = Cardest.True_card.compute g in
  Array.for_all
    (fun s -> Cardest.True_card.card tc s = float_of_int (Support.brute_force_count g s))
    (QG.connected_subsets g)

let true_card_matches_brute_force =
  Support.qcheck_case ~count:40 ~name:"True_card = brute force (random acyclic queries)"
    QCheck.(pair small_int (int_range 2 4))
    (fun (seed, relations) ->
      let prng = Util.Prng.create seed in
      let db = Support.micro_db prng ~tables:relations ~rows:12 in
      brute_force_law (Support.micro_query prng db ~relations ~extra_edges:0))

let true_card_matches_brute_force_cyclic =
  Support.qcheck_case ~count:30 ~name:"True_card = brute force (random cyclic queries)"
    QCheck.(pair small_int (int_range 3 4))
    (fun (seed, relations) ->
      let prng = Util.Prng.create (seed + 1000) in
      let db = Support.micro_db prng ~tables:relations ~rows:10 in
      brute_force_law (Support.micro_query prng db ~relations ~extra_edges:3))

(* An edge [a.left_col = b.right_col] between two micro relations. *)
let micro_edge g a left b right =
  let col r name = Storage.Table.column_index (QG.relation g r).QG.table name in
  { QG.left = a; left_col = col a left; right = b; right_col = col b right; pk_side = None }

(* Two columns of one relation in a class. First t0.fk1 = t1.id AND
   t0.id = t1.id: only the rows of t0 whose fk1 equals their own id
   join, none on seed 3; keying the class on one of t0's columns alone
   counts 8. Then the cycle t0 - t1 - t2 - t3 - t0 over four classes,
   where t1.fk2 = t2.fk1 puts t1.id and t1.fk2 in one class: the cyclic
   fallback must keep that equality too (1 tuple too many on seed 7
   without it). *)
let test_true_card_two_columns_one_class () =
  let check ~seed ~tables edges =
    let prng = Util.Prng.create seed in
    let db = Support.micro_db prng ~tables ~rows:12 in
    let g = Support.micro_query prng db ~relations:tables ~extra_edges:0 in
    let g =
      QG.create ~name:"two-columns"
        (QG.relations g)
        (List.map (fun (a, left, b, right) -> micro_edge g a left b right) edges)
    in
    let tc = Cardest.True_card.compute g in
    Array.iter
      (fun s ->
        Alcotest.(check (Alcotest.float 0.0))
          (Format.asprintf "%d tables, subset %a" tables Bitset.pp s)
          (float_of_int (Support.brute_force_count g s))
          (Cardest.True_card.card tc s))
      (QG.connected_subsets g)
  in
  check ~seed:3 ~tables:2 [ (0, "fk1", 1, "id"); (0, "id", 1, "id") ];
  check ~seed:7 ~tables:4
    [
      (1, "fk0", 0, "id");
      (2, "fk1", 1, "id");
      (3, "fk2", 2, "id");
      (0, "fk3", 3, "id");
      (1, "fk2", 2, "fk1");
    ]

(* Random micro graphs, cyclic ones included, half the time with a
   second edge between two relations a tree edge already joins, on
   random id or foreign-key columns: two columns of one relation can
   then share a class, and a foreign key can meet a foreign key with
   NULLs on both sides. *)
let true_card_matches_brute_force_second_edge =
  Support.qcheck_case ~count:40 ~name:"True_card = brute force (second edge on a pair)"
    QCheck.(pair small_int (int_range 2 4))
    (fun (seed, relations) ->
      let prng = Util.Prng.create (seed + 4000) in
      let db = Support.micro_db prng ~tables:relations ~rows:12 in
      let g =
        Support.micro_query prng db ~relations ~extra_edges:(Util.Prng.int prng 3)
      in
      let g =
        if Util.Prng.bool prng then g
        else begin
          let tree = Array.of_list (QG.edges g) in
          let e = tree.(Util.Prng.int prng (Array.length tree)) in
          let key r =
            let other = Util.Prng.int prng relations in
            if other = r then "id" else Printf.sprintf "fk%d" other
          in
          QG.create ~name:"micro" (QG.relations g)
            (QG.edges g @ [ micro_edge g e.QG.left (key e.QG.left) e.QG.right (key e.QG.right) ])
        end
      in
      brute_force_law g)

(* --- True_card vs the reference count ---------------------------------- *)

(* [True_card.compute] as it was: per subset, classes from a union-find
   over a [Hashtbl], every member's base groups projected into a fresh
   table, a Prim join tree built from lists, and a fresh message table
   per tree node. Its cards are exact integers, so the pooled,
   projection-free count must agree with it bit for bit while they stay
   below 2^53. *)
module Reference = struct
  module GT = Cardest.Group_table

  let find_scratch t =
    let id = GT.find t in
    if id < 0 then 0.0 else GT.count t id

  (* ------------------------------------------------------------------ *)
  (* Join-attribute equivalence classes                                  *)

  (* Union-find over (relation, column) pairs connected by join edges. *)
  module Classes = struct
    type uf = { parents : (int * int, int * int) Hashtbl.t }

    let rec find uf x =
      match Hashtbl.find_opt uf.parents x with
      | None -> x
      | Some p when p = x -> x
      | Some p ->
          let root = find uf p in
          Hashtbl.replace uf.parents x root;
          root

    let union uf a b =
      let ra = find uf a and rb = find uf b in
      if ra <> rb then Hashtbl.replace uf.parents ra rb

    let ensure uf x = if not (Hashtbl.mem uf.parents x) then Hashtbl.add uf.parents x x

    (* Per-relation sorted (class id, column) pairs for one subset — as
       two parallel arrays, since the counting kernels scan them in tight
       loops — derived from the join edges {e inside} that subset only.
       Using in-subset edges (not the whole query's transitive closure)
       matches the semantics of the executor and the enumerator: a
       subexpression applies exactly the join predicates whose both sides
       it contains. *)
    let build_subset graph s =
      let uf = { parents = Hashtbl.create 16 } in
      let in_subset (e : QG.edge) =
        Util.Bitset.mem e.QG.left s && Util.Bitset.mem e.QG.right s
      in
      let edges = List.filter in_subset (QG.edges graph) in
      List.iter
        (fun (e : QG.edge) ->
          let a = (e.QG.left, e.QG.left_col) and b = (e.QG.right, e.QG.right_col) in
          ensure uf a;
          ensure uf b;
          union uf a b)
        edges;
      let class_of_root = Hashtbl.create 16 in
      let next = ref 0 in
      let class_id pair =
        let root = find uf pair in
        match Hashtbl.find_opt class_of_root root with
        | Some id -> id
        | None ->
            let id = !next in
            incr next;
            Hashtbl.add class_of_root root id;
            id
      in
      let n = QG.n_relations graph in
      let pairs = Array.make n [] in
      List.iter
        (fun (e : QG.edge) ->
          List.iter
            (fun (r, col) ->
              let c = class_id (r, col) in
              if not (List.mem_assoc c pairs.(r)) then
                pairs.(r) <- (c, col) :: pairs.(r))
            [ (e.QG.left, e.QG.left_col); (e.QG.right, e.QG.right_col) ])
        edges;
      Array.map
        (fun ps ->
          let ps = List.sort compare ps in
          (Array.of_list (List.map fst ps), Array.of_list (List.map snd ps)))
        pairs
  end

  let array_mem x a = Array.exists (fun y -> y = x) a

  (* ------------------------------------------------------------------ *)
  (* Compressed relations: multiplicity per join-class value tuple       *)

  type compressed = {
    classes : int array; (* sorted class ids; key positions correspond *)
    groups : GT.t;
  }

  let positions ~from ~wanted =
    Array.map
      (fun c ->
        let rec go i =
          if i >= Array.length from then
            invalid_arg "True_card.positions: class not present"
          else if from.(i) = c then i
          else go (i + 1)
        in
        go 0)
      wanted

  (* Copy the key fields of group [id] selected by [pos] into [dst]. *)
  let extract src id pos dst =
    for f = 0 to Array.length pos - 1 do
      dst.(f) <- GT.component src id pos.(f)
    done

  let project c ~onto =
    if onto = c.classes then c
    else begin
      let pos = positions ~from:c.classes ~wanted:onto in
      let groups = GT.create ~arity:(Array.length onto) ~expected:(GT.groups c.groups) () in
      let dst = GT.scratch groups in
      GT.iter c.groups (fun id count ->
          extract c.groups id pos dst;
          GT.add_scratch groups count);
      { classes = onto; groups }
    end

  let total c = GT.total c.groups

  (* Base groups are keyed by raw column ids (every join column of the
     relation); per-subset localization projects onto the columns the
     subset's own edges mention and relabels them to local class ids.
     The row loop is the single hottest spot of Table 1: predicates run
     through a selection vector (one compaction pass per atom instead of
     a closure call per row), and each surviving row aggregates through
     the table's scratch key without allocating. *)
  let base_compressed graph r =
    let relation = QG.relation graph r in
    let table = relation.QG.table in
    let classes = Array.of_list (QG.join_columns graph r) in
    let cols = Array.map (Storage.Table.column table) classes in
    let nfields = Array.length classes in
    let groups = GT.create ~arity:nfields ~expected:1024 () in
    let key = GT.scratch groups in
    let fill = Query.Predicate.compile_selector table relation.QG.preds in
    let nrows = Storage.Table.row_count table in
    let chunk = 4096 in
    let sel = Array.make chunk 0 in
    (* Per-class chunk views: each column decodes the current chunk into
       scratch, so row [r]'s code is [arrs.(f).(r - start)]. *)
    let arrs = Array.map (fun _ -> Array.make chunk 0) cols in
    let row = ref 0 in
    while !row < nrows do
      let start = !row in
      let stop = min nrows (start + chunk) in
      for f = 0 to nfields - 1 do
        Storage.Column.decode_into cols.(f) ~row_start:start ~len:(stop - start)
          arrs.(f)
      done;
      let m = fill sel start stop in
      for k = 0 to m - 1 do
        let r = Array.unsafe_get sel k - start in
        for f = 0 to nfields - 1 do
          Array.unsafe_set key f (Array.unsafe_get (Array.unsafe_get arrs f) r)
        done;
        GT.add_scratch groups 1.0
      done;
      row := stop
    done;
    { classes; groups }

  (* ------------------------------------------------------------------ *)
  (* Join trees                                                          *)

  (* A join tree over the relations of a subset: a maximum spanning tree of
     the "shared class count" graph. For acyclic (hyper)queries this
     satisfies the running-intersection property, which we verify; cyclic
     subsets fall back to pairwise joins. *)
  module Join_tree = struct
    type node = {
      rel : int;
      mutable children : node list;
    }

    let shared_classes rel_classes r1 r2 =
      let c1, _ = rel_classes.(r1) and c2, _ = rel_classes.(r2) in
      let count =
        Array.fold_left (fun acc c -> if array_mem c c2 then acc + 1 else acc) 0 c1
      in
      let out = Array.make count 0 in
      let k = ref 0 in
      Array.iter
        (fun c ->
          if array_mem c c2 then begin
            out.(!k) <- c;
            incr k
          end)
        c1;
      out

    let n_shared rel_classes r1 r2 =
      let c1, _ = rel_classes.(r1) and c2, _ = rel_classes.(r2) in
      Array.fold_left (fun acc c -> if array_mem c c2 then acc + 1 else acc) 0 c1

    (* Maximum spanning tree (Prim) over the subset's relations, weights =
       number of shared classes. Returns the root node, or None when the
       subset is not join-connected through classes (cannot happen for
       connected query subsets). *)
    let build rel_classes members =
      match members with
      | [] -> invalid_arg "Join_tree.build: empty"
      | root_rel :: _ ->
          let nodes = Hashtbl.create (List.length members) in
          let node_of r =
            match Hashtbl.find_opt nodes r with
            | Some n -> n
            | None ->
                let n = { rel = r; children = [] } in
                Hashtbl.add nodes r n;
                n
          in
          let in_tree = ref [ root_rel ] in
          let out = ref (List.filter (fun r -> r <> root_rel) members) in
          let root = node_of root_rel in
          while !out <> [] do
            (* Best (weight, inside, outside) pair. *)
            let best = ref None in
            List.iter
              (fun o ->
                List.iter
                  (fun i ->
                    let w = n_shared rel_classes i o in
                    if w > 0 then
                      match !best with
                      | Some (bw, _, _) when bw >= w -> ()
                      | _ -> best := Some (w, i, o))
                  !in_tree)
              !out;
            match !best with
            | None -> invalid_arg "Join_tree.build: disconnected subset"
            | Some (_, i, o) ->
                let parent = node_of i in
                parent.children <- node_of o :: parent.children;
                in_tree := o :: !in_tree;
                out := List.filter (fun r -> r <> o) !out
          done;
          root

    (* Running intersection: for every class, the tree nodes whose relation
       mentions it must form a connected subtree. *)
    let running_intersection rel_classes root =
      let ok = ref true in
      let all_classes = Hashtbl.create 16 in
      let rec collect n =
        Array.iter
          (fun c -> Hashtbl.replace all_classes c ())
          (fst rel_classes.(n.rel));
        List.iter collect n.children
      in
      collect root;
      Hashtbl.iter
        (fun cls () ->
          (* Count connected components of nodes mentioning cls: walk the
             tree; a component starts at a mentioning node whose parent
             does not mention it. *)
          let components = ref 0 in
          let mentions r = array_mem cls (fst rel_classes.(r)) in
          let rec walk parent_mentions n =
            let m = mentions n.rel in
            if m && not parent_mentions then incr components;
            List.iter (walk m) n.children
          in
          walk false root;
          if !components > 1 then ok := false)
        all_classes;
      !ok
  end

  (* Yannakakis-style bottom-up counting over a join tree: linear in the
     sizes of the base groups, never materializing any joint distribution
     wider than a single relation's own key. *)
  let count_acyclic rel_classes base_groups root =
    (* Multiplicity of group [id] of [g] after multiplying in every child
       subtree's message; 0.0 as soon as any child has no partners. *)
    let combined_weight g child_info id count =
      let w = ref count in
      List.iter
        (fun (pos, msg) ->
          if !w > 0.0 then begin
            extract g id pos (GT.scratch msg);
            w := !w *. find_scratch msg
          end)
        child_info;
      !w
    in
    (* Message from the subtree rooted at [n], keyed by the classes shared
       with its parent [p]. *)
    let rec message (n : Join_tree.node) ~parent:p =
      let g = base_groups.(n.Join_tree.rel).groups in
      let classes = base_groups.(n.Join_tree.rel).classes in
      let child_info =
        List.map
          (fun (c : Join_tree.node) ->
            let shared =
              Join_tree.shared_classes rel_classes n.Join_tree.rel c.Join_tree.rel
            in
            let msg = message c ~parent:n.Join_tree.rel in
            (positions ~from:classes ~wanted:shared, msg))
          n.Join_tree.children
      in
      let out_pos =
        positions ~from:classes
          ~wanted:(Join_tree.shared_classes rel_classes n.Join_tree.rel p)
      in
      let out = GT.create ~arity:(Array.length out_pos) ~expected:256 () in
      GT.iter g (fun id count ->
          let w = combined_weight g child_info id count in
          if w > 0.0 then begin
            extract g id out_pos (GT.scratch out);
            GT.add_scratch out w
          end);
      out
    in
    let g = base_groups.(root.Join_tree.rel).groups in
    let classes = base_groups.(root.Join_tree.rel).classes in
    let child_info =
      List.map
        (fun (c : Join_tree.node) ->
          let shared =
            Join_tree.shared_classes rel_classes root.Join_tree.rel c.Join_tree.rel
          in
          let msg = message c ~parent:root.Join_tree.rel in
          (positions ~from:classes ~wanted:shared, msg))
        root.Join_tree.children
    in
    let scalar = ref 0.0 in
    GT.iter g (fun id count ->
        scalar := !scalar +. combined_weight g child_info id count);
    !scalar

  (* Fallback for cyclic subsets (e.g. TPC-H Q5): left-deep pairwise joins
     of the compressed relations, projecting after every step onto the
     classes still referenced by the remaining relations. *)
  let count_cyclic rel_classes base_groups members =
    match members with
    | [] -> invalid_arg "True_card.count_cyclic: empty"
    | first :: rest ->
        (* Join in an order that keeps every prefix connected. *)
        let order = ref [ first ] in
        let remaining = ref rest in
        while !remaining <> [] do
          let next =
            List.find
              (fun r ->
                List.exists
                  (fun i -> Join_tree.n_shared rel_classes i r > 0)
                  !order)
              !remaining
          in
          order := !order @ [ next ];
          remaining := List.filter (fun r -> r <> next) !remaining
        done;
        let order = !order in
        let classes_of rs =
          List.concat_map (fun r -> Array.to_list (fst rel_classes.(r))) rs
          |> List.sort_uniq compare |> Array.of_list
        in
        let filter_mem a keep =
          Array.of_list (List.filter (fun c -> array_mem c keep) (Array.to_list a))
        in
        let rec go acc = function
          | [] -> total acc
          | r :: rest ->
              let g = base_groups.(r) in
              let shared = filter_mem g.classes acc.classes in
              (* Classes still needed: mentioned by relations after r. *)
              let future = classes_of rest in
              let all =
                Array.of_list
                  (List.sort_uniq compare
                     (Array.to_list acc.classes @ Array.to_list g.classes))
              in
              let out_classes = filter_mem all future in
              let keep (side : compressed) =
                Array.of_list
                  (List.filter
                     (fun c -> array_mem c shared || array_mem c out_classes)
                     (Array.to_list side.classes))
              in
              let a = project acc ~onto:(keep acc) in
              let b = project g ~onto:(keep g) in
              let spa = positions ~from:a.classes ~wanted:shared in
              let spb = positions ~from:b.classes ~wanted:shared in
              (* Multimap from shared-key tuple to b's group ids. *)
              let index = Hashtbl.create (max 16 (GT.groups b.groups)) in
              GT.iter b.groups (fun id _ ->
                  let sk = Array.make (Array.length spb) 0 in
                  extract b.groups id spb sk;
                  let prior =
                    match Hashtbl.find_opt index sk with Some l -> l | None -> []
                  in
                  Hashtbl.replace index sk (id :: prior));
              (* Where each output class comes from: a's key or b's key. *)
              let out_source =
                Array.map
                  (fun c ->
                    let rec idx i arr =
                      if i >= Array.length arr then None
                      else if arr.(i) = c then Some i
                      else idx (i + 1) arr
                    in
                    match idx 0 a.classes with
                    | Some i -> `A i
                    | None -> `B (Option.get (idx 0 b.classes)))
                  out_classes
              in
              let groups =
                GT.create ~arity:(Array.length out_classes)
                  ~expected:(GT.groups a.groups) ()
              in
              let dst = GT.scratch groups in
              let sk = Array.make (Array.length spa) 0 in
              GT.iter a.groups (fun a_id a_count ->
                  extract a.groups a_id spa sk;
                  match Hashtbl.find_opt index sk with
                  | None -> ()
                  | Some partners ->
                      List.iter
                        (fun b_id ->
                          Array.iteri
                            (fun f src ->
                              dst.(f) <-
                                (match src with
                                | `A i -> GT.component a.groups a_id i
                                | `B i -> GT.component b.groups b_id i))
                            out_source;
                          GT.add_scratch groups (a_count *. GT.count b.groups b_id))
                        partners);
              go { classes = out_classes; groups } rest
        in
        let g0 = base_groups.(List.hd order) in
        go g0 (List.tl order)

  (* ------------------------------------------------------------------ *)

  let compute graph =
    let n = QG.n_relations graph in
    let empty_compressed =
      { classes = [||]; groups = GT.create ~arity:0 ~expected:1 () }
    in
    let base_groups = Array.init n (base_compressed graph) in
    let count s =
      let members = Bitset.to_list s in
      match members with
      | [ r ] -> total base_groups.(r)
      | _ ->
          (* Classes from the edges inside this subset only. *)
          let rel_classes = Classes.build_subset graph s in
          (* Localize base groups: project onto the columns this
             subset's edges mention and relabel them to class ids. *)
          let local_groups = Array.make n empty_compressed in
          List.iter
            (fun r ->
              let class_ids, wanted_cols = rel_classes.(r) in
              let projected = project base_groups.(r) ~onto:wanted_cols in
              local_groups.(r) <- { projected with classes = class_ids })
            members;
          let root = Join_tree.build rel_classes members in
          if Join_tree.running_intersection rel_classes root then
            count_acyclic rel_classes local_groups root
          else count_cyclic rel_classes local_groups members
    in
    Array.map count (QG.connected_subsets graph)
end

let reference_compute = Reference.compute

let exact_limit = 9007199254740992.0 (* 2^53 *)

(* Ordinals where the two differ, and whether every card is below 2^53. *)
let against_reference g =
  let tc = Cardest.True_card.compute g in
  let expected = reference_compute g in
  let subsets = QG.connected_subsets g in
  let differing = ref [] and exact = ref true in
  Array.iteri
    (fun o s ->
      let got = Cardest.True_card.card tc s in
      if Int64.bits_of_float got <> Int64.bits_of_float expected.(o) then
        differing := o :: !differing;
      if not (got < exact_limit) then exact := false)
    subsets;
  (List.rev !differing, !exact)

let reference_law g =
  let differing, exact = against_reference g in
  differing = [] && exact

let true_card_matches_reference =
  Support.qcheck_case ~count:40 ~name:"True_card = reference (random acyclic queries)"
    QCheck.(pair small_int (int_range 2 7))
    (fun (seed, relations) ->
      let prng = Util.Prng.create (seed + 2000) in
      let db = Support.micro_db prng ~tables:relations ~rows:40 in
      reference_law (Support.micro_query prng db ~relations ~extra_edges:0))

let true_card_matches_reference_cyclic =
  Support.qcheck_case ~count:40 ~name:"True_card = reference (random cyclic queries)"
    QCheck.(pair small_int (int_range 3 7))
    (fun (seed, relations) ->
      let prng = Util.Prng.create (seed + 3000) in
      let db = Support.micro_db prng ~tables:relations ~rows:40 in
      reference_law (Support.micro_query prng db ~relations ~extra_edges:4))

(* Every connected subset of each JOB query in [queries], on the
   benchmark's database seed at [scale]. *)
let check_job_against_reference ~scale queries =
  let db = Support.fresh_imdb ~seed:42 ~scale () in
  List.iter
    (fun (q : Workload.Job.query) ->
      let g =
        (Sqlfront.Binder.bind_sql db ~name:q.Workload.Job.name q.Workload.Job.sql)
          .Sqlfront.Binder.graph
      in
      let differing, exact = against_reference g in
      if differing <> [] then
        Alcotest.failf "%s at scale %g: %d subsets differ from the reference, first %a"
          q.Workload.Job.name scale (List.length differing) Bitset.pp
          (QG.connected_subsets g).(List.hd differing);
      if not exact then
        Alcotest.failf "%s at scale %g: a card reaches 2^53" q.Workload.Job.name scale)
    queries

(* All 113 queries at the optimizer-matrix scale, and the matrix's 66
   (the first two variants of each family) at twice it. *)
let test_true_card_job_reference () =
  check_job_against_reference ~scale:0.001 Workload.Job.all;
  check_job_against_reference ~scale:0.002
    (List.concat_map
       (fun (_, variants) -> List.filteri (fun i _ -> i < 2) variants)
       Workload.Job.families)

let test_true_card_imdb_query () =
  (* A real multi-join query on the small IMDB, against brute force. *)
  let db = Lazy.force Support.imdb in
  let b =
    Sqlfront.Binder.bind_sql db ~name:"t"
      "SELECT MIN(t.title) FROM title AS t, movie_keyword AS mk, keyword AS k, \
       cast_info AS ci WHERE t.id = mk.movie_id AND mk.keyword_id = k.id AND \
       t.id = ci.movie_id AND k.keyword = 'sequel'"
  in
  let g = b.Sqlfront.Binder.graph in
  let tc = Cardest.True_card.compute g in
  Array.iter
    (fun s ->
      Alcotest.(check (Alcotest.float 0.0))
        (Format.asprintf "subset %a" Bitset.pp s)
        (float_of_int (Support.brute_force_count g s))
        (Cardest.True_card.card tc s))
    (QG.connected_subsets g)

let test_true_card_zero_result () =
  let db = Lazy.force Support.imdb in
  let b =
    Sqlfront.Binder.bind_sql db ~name:"zero"
      "SELECT MIN(t.title) FROM title AS t, movie_keyword AS mk, keyword AS k \
       WHERE t.id = mk.movie_id AND mk.keyword_id = k.id AND \
       k.keyword = 'definitely-not-a-keyword'"
  in
  let g = b.Sqlfront.Binder.graph in
  let tc = Cardest.True_card.compute g in
  Alcotest.(check (Alcotest.float 0.0)) "empty" 0.0
    (Cardest.True_card.card tc (QG.full_set g))

let test_true_card_rejects_disconnected () =
  let db = Lazy.force Support.imdb in
  let b =
    Sqlfront.Binder.bind_sql db ~name:"t"
      "SELECT MIN(t.title) FROM title AS t, movie_keyword AS mk, keyword AS k \
       WHERE t.id = mk.movie_id AND mk.keyword_id = k.id"
  in
  let tc = Cardest.True_card.compute b.Sqlfront.Binder.graph in
  (try
     ignore (Cardest.True_card.card tc (Bitset.of_list [ 0; 2 ]));
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

(* --- Estimator framework ---------------------------------------------------- *)

let toy_graph () =
  let prng = Util.Prng.create 17 in
  let db = Support.micro_db prng ~tables:3 ~rows:20 in
  Support.micro_query prng db ~relations:3 ~extra_edges:0

let test_compositional_singleton_and_clamp () =
  let g = toy_graph () in
  let est =
    Cardest.Estimator.compositional ~name:"t" ~graph:g
      ~base:(fun r -> float_of_int (r + 1) *. 0.25)
      ~edge_selectivity:(fun _ -> 0.001)
      ~rounding:Cardest.Estimator.Clamp_one ()
  in
  Alcotest.(check (Alcotest.float 1e-9)) "singleton clamped" 1.0
    (est.Cardest.Estimator.subset (Bitset.singleton 0));
  Alcotest.(check bool) "never below one" true
    (est.Cardest.Estimator.subset (QG.full_set g) >= 1.0)

let test_compositional_floor () =
  let g = toy_graph () in
  let est =
    Cardest.Estimator.compositional ~name:"t" ~graph:g
      ~base:(fun _ -> 7.9)
      ~edge_selectivity:(fun _ -> 1.0)
      ~rounding:Cardest.Estimator.Floor_one ()
  in
  Alcotest.(check (Alcotest.float 1e-9)) "floored" 7.0
    (est.Cardest.Estimator.subset (Bitset.singleton 0))

let test_compositional_independence_formula () =
  let g = toy_graph () in
  let est =
    Cardest.Estimator.compositional ~name:"t" ~graph:g
      ~base:(fun _ -> 100.0)
      ~edge_selectivity:(fun _ -> 0.01)
      ()
  in
  (* 3 relations, 2 edges: 100^3 * 0.01^2 = 100_00... = 1e6 * 1e-4 = 100. *)
  Alcotest.(check (Alcotest.float 1e-6)) "textbook product" 100.0
    (est.Cardest.Estimator.subset (QG.full_set g))

let test_backoff_raises_estimates () =
  let g = toy_graph () in
  let independent =
    Cardest.Estimator.compositional ~name:"i" ~graph:g
      ~base:(fun _ -> 100.0)
      ~edge_selectivity:(fun _ -> 0.01)
      ()
  in
  let damped =
    Cardest.Estimator.compositional ~name:"d" ~graph:g
      ~base:(fun _ -> 100.0)
      ~edge_selectivity:(fun _ -> 0.01)
      ~combine:(Cardest.Estimator.Backoff 0.5) ()
  in
  Alcotest.(check bool) "damping raises deep estimates" true
    (damped.Cardest.Estimator.subset (QG.full_set g)
    > independent.Cardest.Estimator.subset (QG.full_set g))

let estimator_memo_deterministic =
  Support.qcheck_case ~name:"estimator subset memo deterministic"
    QCheck.small_int
    (fun seed ->
      let prng = Util.Prng.create seed in
      let db = Support.micro_db prng ~tables:4 ~rows:10 in
      let g = Support.micro_query prng db ~relations:4 ~extra_edges:1 in
      let est =
        Cardest.Estimator.compositional ~name:"t" ~graph:g
          ~base:(fun r -> float_of_int ((r * 13) + 5))
          ~edge_selectivity:(fun _ -> 0.03)
          ~rounding:Cardest.Estimator.Clamp_one ()
      in
      Array.for_all
        (fun s ->
          est.Cardest.Estimator.subset s = est.Cardest.Estimator.subset s)
        (Query.Query_graph.connected_subsets g))

let test_textbook_edge_selectivity () =
  let dom ~rel ~col =
    ignore col;
    if rel = 0 then 100.0 else 500.0
  in
  let e = { QG.left = 0; left_col = 0; right = 1; right_col = 0; pk_side = None } in
  Alcotest.(check (Alcotest.float 1e-12)) "1/max" (1.0 /. 500.0)
    (Cardest.Estimator.textbook_edge_selectivity ~dom e)

(* --- Selectivity -------------------------------------------------------------- *)

let test_selectivity_mcv_equality () =
  let db = Lazy.force Support.imdb_mid in
  let t = Storage.Database.find_table db "company_name" in
  let col = Storage.Table.column_index t "country_code" in
  let column = Storage.Table.column t col in
  let stats =
    Dbstats.Column_stats.build t ~col
      ~sample_rows:(Array.init (Storage.Table.row_count t) (fun i -> i))
      ()
  in
  let us = Option.get (Storage.Column.encode column (Storage.Value.Str "[us]")) in
  let sel =
    Cardest.Selectivity.atom ~stats ~table:t ~magic:Cardest.Selectivity.pg_magic
      (Query.Predicate.Cmp { col; op = Query.Predicate.Eq; code = us })
  in
  (* True fraction of '[us]' companies is around 0.3; an MCV hit must be
     close. *)
  let truth = ref 0 in
  Storage.Column.iter_codes column (fun v -> if v = us then incr truth);
  let exact = float_of_int !truth /. float_of_int (Storage.Table.row_count t) in
  Alcotest.(check bool)
    (Printf.sprintf "mcv close: est %.3f vs exact %.3f" sel exact)
    true
    (Float.abs (sel -. exact) < 0.05)

let test_selectivity_or_formula () =
  let db = Lazy.force Support.imdb in
  let t = Storage.Database.find_table db "title" in
  let col = Storage.Table.column_index t "production_year" in
  let stats =
    Dbstats.Column_stats.build t ~col
      ~sample_rows:(Array.init (Storage.Table.row_count t) (fun i -> i))
      ()
  in
  let atom op code = Query.Predicate.Cmp { col; op; code } in
  let s1 =
    Cardest.Selectivity.atom ~stats ~table:t ~magic:Cardest.Selectivity.pg_magic
      (atom Query.Predicate.Gt 2000)
  in
  let s2 =
    Cardest.Selectivity.atom ~stats ~table:t ~magic:Cardest.Selectivity.pg_magic
      (atom Query.Predicate.Lt 1950)
  in
  let s_or =
    Cardest.Selectivity.atom ~stats ~table:t ~magic:Cardest.Selectivity.pg_magic
      (Query.Predicate.Or [ atom Query.Predicate.Gt 2000; atom Query.Predicate.Lt 1950 ])
  in
  Alcotest.(check (Alcotest.float 1e-9)) "s1+s2-s1s2" (s1 +. s2 -. (s1 *. s2)) s_or

let test_selectivity_bounds =
  Support.qcheck_case ~name:"selectivity always within [0,1]"
    QCheck.(pair (int_range 1880 2015) small_int)
    (fun (year, seed) ->
      ignore seed;
      let db = Lazy.force Support.imdb in
      let t = Storage.Database.find_table db "title" in
      let col = Storage.Table.column_index t "production_year" in
      let stats =
        Dbstats.Column_stats.build t ~col
          ~sample_rows:(Array.init (Storage.Table.row_count t) (fun i -> i))
          ()
      in
      List.for_all
        (fun op ->
          let s =
            Cardest.Selectivity.atom ~stats ~table:t
              ~magic:Cardest.Selectivity.pg_magic
              (Query.Predicate.Cmp { col; op; code = year })
          in
          s >= 0.0 && s <= 1.0)
        [ Query.Predicate.Eq; Query.Predicate.Ne; Query.Predicate.Lt;
          Query.Predicate.Ge ])

(* --- Systems --------------------------------------------------------------------- *)

let job_context () =
  let db = Lazy.force Support.imdb_mid in
  let analyze = Dbstats.Analyze.create db in
  let q = Workload.Job.find "1a" in
  let b = Sqlfront.Binder.bind_sql db ~name:"1a" q.Workload.Job.sql in
  (db, analyze, b.Sqlfront.Binder.graph)

let test_all_systems_positive_finite () =
  let db, analyze, graph = job_context () in
  List.iter
    (fun name ->
      let est = Support.system_estimator db analyze graph name in
      Array.iter
        (fun s ->
          let v = est.Cardest.Estimator.subset s in
          if not (Float.is_finite v) || v < 0.0 then
            Alcotest.failf "%s produced %f" name v)
        (QG.connected_subsets graph))
    Cardest.Systems.names

let test_dbms_b_estimates_integral () =
  let db, _, graph = job_context () in
  let coarse = Cardest.Systems.coarse_analyze db in
  let est = Cardest.Systems.dbms_b coarse { Cardest.Systems.db; graph } in
  Array.iter
    (fun s ->
      let v = est.Cardest.Estimator.subset s in
      Alcotest.(check bool) "integer >= 1" true (Float.is_integer v && v >= 1.0))
    (QG.connected_subsets graph)

let test_postgres_true_distinct_variant_differs () =
  (* Needs (a) a small sample, so sampled distinct counts underestimate,
     and (b) an FK/FK join edge — on FK->PK edges the formula's
     max(dom) always picks the PK side, whose distinct count is exact
     either way. Query 2a has the transitive mk/mc edge. *)
  let db = Lazy.force Support.imdb_mid in
  let q = Workload.Job.find "2a" in
  let b = Sqlfront.Binder.bind_sql db ~name:"2a" q.Workload.Job.sql in
  let graph = b.Sqlfront.Binder.graph in
  let analyze = Dbstats.Analyze.create ~sample_size:300 db in
  let ctx = { Cardest.Systems.db; graph } in
  let default = Cardest.Systems.postgres analyze ctx in
  let exact = Cardest.Systems.postgres ~true_distinct:true analyze ctx in
  (* Some subexpression must be estimated differently (the full set may
     clamp to 1 under both variants). *)
  Alcotest.(check bool) "estimates differ somewhere" true
    (Array.exists
       (fun s ->
         default.Cardest.Estimator.subset s <> exact.Cardest.Estimator.subset s)
       (QG.connected_subsets graph))

let test_sample_estimators_good_base () =
  (* HyPer/DBMS A evaluate the whole conjunction on a sample: on the
     mid-size database their base estimates must beat DBMS C's. *)
  let db = Lazy.force Support.imdb_mid in
  let analyze = Dbstats.Analyze.create db in
  let q = Workload.Job.find "1b" in
  let b = Sqlfront.Binder.bind_sql db ~name:"1b" q.Workload.Job.sql in
  let graph = b.Sqlfront.Binder.graph in
  let ctx = { Cardest.Systems.db; graph } in
  let tc = Cardest.True_card.compute graph in
  let err name est =
    let total = ref 0.0 in
    Array.iteri
      (fun r _ ->
        let truth = Float.max 1.0 (Cardest.True_card.base tc r) in
        let estimate = Float.max 1.0 (est.Cardest.Estimator.base r) in
        total := !total +. Util.Stat.q_error ~estimate ~truth)
      (QG.relations graph);
    ignore name;
    !total
  in
  let a = err "A" (Cardest.Systems.dbms_a analyze ctx) in
  let c = err "C" (Cardest.Systems.dbms_c analyze ctx) in
  Alcotest.(check bool) (Printf.sprintf "A (%.1f) <= C (%.1f)" a c) true (a <= c)

(* --- Cached instances: oracles for the memo and the samples ----------------- *)

(* The compositional framework as it memoized before ordinals: a
   [Hashtbl] keyed by subset, the split and the formula written out
   again. The ordinal memo must give bit-equal estimates with the same
   sequence of base calls. *)
module Hashtbl_compositional = struct
  let round rounding x =
    match rounding with
    | Cardest.Estimator.No_rounding -> x
    | Cardest.Estimator.Clamp_one -> Float.max 1.0 x
    | Cardest.Estimator.Floor_one -> Float.max 1.0 (Float.of_int (int_of_float x))

  let create graph (p : Cardest.Systems.parts) =
    let n = QG.n_relations graph in
    let base_cache = Array.make n None in
    let base r =
      match base_cache.(r) with
      | Some v -> v
      | None ->
          let v = p.base r in
          base_cache.(r) <- Some v;
          v
    in
    let memo = Hashtbl.create 256 in
    let edges = QG.edges graph in
    let rec subset s =
      if Bitset.cardinal s = 1 then round p.rounding (base (Bitset.lowest s))
      else
        match Hashtbl.find_opt memo s with
        | Some v -> v
        | None ->
            let rec split r =
              if Bitset.mem r s && QG.is_connected graph (Bitset.remove r s) then r
              else split (r - 1)
            in
            let r = split (n - 1) in
            let rest = Bitset.remove r s in
            let rest_est = subset rest in
            let joined = ref (rest_est *. base r) in
            let j =
              ref
                (List.length
                   (List.filter
                      (fun (e : QG.edge) -> Bitset.mem e.QG.left rest && Bitset.mem e.QG.right rest)
                      edges))
            in
            List.iter
              (fun e ->
                let sel = p.edge_selectivity e in
                let sel =
                  match p.combine with
                  | Cardest.Estimator.Independence -> sel
                  | Cardest.Estimator.Backoff c -> if !j = 0 then sel else sel ** c
                in
                joined := !joined *. sel;
                incr j)
              (QG.edges_between graph rest (Bitset.singleton r));
            let v = round p.rounding !joined in
            Hashtbl.add memo s v;
            v
    in
    subset
end

let bits = Int64.bits_of_float

(* [parts] with its base calls logged, newest first. *)
let logged (p : Cardest.Systems.parts) =
  let calls = ref [] in
  ({ p with base = (fun r -> calls := r :: !calls; p.base r) }, calls)

(* Every connected subset of every JOB query at the matrix scale, for
   the five systems, probed in ordinal order and then in reverse on
   fresh instances: the ordinal memo and the Hashtbl reference agree bit
   for bit, on first probes and on hits, and call [base] in the same
   order. *)
let test_ordinal_memo_matches_hashtbl () =
  let db = Support.fresh_imdb ~seed:42 ~scale:0.001 () in
  let analyze = Dbstats.Analyze.create db in
  let coarse = Cardest.Systems.coarse_analyze db in
  List.iter
    (fun (q : Workload.Job.query) ->
      let graph =
        (Sqlfront.Binder.bind_sql db ~name:q.Workload.Job.name q.Workload.Job.sql)
          .Sqlfront.Binder.graph
      in
      let ctx = { Cardest.Systems.db; graph } in
      let subsets = QG.connected_subsets graph in
      let ordinal = Array.to_list subsets in
      let systems =
        Cardest.Systems.
          [
            (fun () -> postgres_parts analyze ctx);
            (fun () -> dbms_a_parts analyze ctx);
            (fun () -> dbms_b_parts coarse ctx);
            (fun () -> dbms_c_parts analyze ctx);
            (fun () -> hyper_parts analyze ctx);
          ]
      in
      Alcotest.(check (list string)) "every system" Cardest.Systems.names
        (List.map (fun fresh -> (fresh ()).Cardest.Systems.name) systems);
      List.iter
        (fun fresh ->
          let name = (fresh ()).Cardest.Systems.name in
          List.iter
            (fun (order, probes) ->
              let p, calls = logged (fresh ()) and rp, rcalls = logged (fresh ()) in
              let est =
                Cardest.Estimator.compositional ~name ~graph ~base:p.base
                  ~edge_selectivity:p.edge_selectivity ~combine:p.combine
                  ~rounding:p.rounding ()
              in
              let reference = Hashtbl_compositional.create graph rp in
              List.iter
                (fun pass ->
                  List.iter
                    (fun s ->
                      let got = est.Cardest.Estimator.subset s and want = reference s in
                      if bits got <> bits want then
                        Alcotest.failf "%s %s %s (%s order, %s): %h, reference %h"
                          q.Workload.Job.name name
                          (Format.asprintf "%a" Bitset.pp s)
                          order pass got want)
                    probes)
                [ "first probes"; "hits" ];
              Alcotest.(check (list int))
                (Printf.sprintf "%s %s base calls (%s order)" q.Workload.Job.name name order)
                !rcalls !calls)
            [ ("ordinal", ordinal); ("reverse", List.rev ordinal) ])
        systems)
    Workload.Job.all

(* The sample-based base estimate as it was before samples were
   released: every table drawn through [Sample.take], every sample kept
   for the instance's life. *)
let keep_every_sample ({ Cardest.Systems.sample_size; fallback; seed } : Cardest.Systems.sampling)
    (ctx : Cardest.Systems.context) =
  let prng = Util.Prng.create seed in
  let samples = Hashtbl.create 16 in
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
    let matches =
      Dbstats.Sample.evaluate sample table (Query.Predicate.compile table relation.QG.preds)
    in
    let sel =
      if matches > 0 then float_of_int matches /. float_of_int (Dbstats.Sample.size sample)
      else if relation.QG.preds = [] then 1.0
      else fallback
    in
    sel *. float_of_int (Storage.Table.row_count table)

(* DBMS A and HyPer base estimates of every JOB query equal the
   keep-every-sample reference's, asked for straight from the parts'
   [base]: in relation order and then in reverse, and in reverse with
   each relation asked twice and then in relation order. Asking again
   after every relation has its estimate (the samples are gone by then)
   returns the same value. At 0.01 some tables outgrow both samples, so
   drawn samples, and their reuse by a second alias of the same table,
   are checked too. *)
let check_sample_bases ~scale =
  let db = Support.fresh_imdb ~seed:42 ~scale () in
  let analyze = Dbstats.Analyze.create db in
  let aliased_draws = ref 0 in
  List.iter
    (fun (q : Workload.Job.query) ->
      let graph =
        (Sqlfront.Binder.bind_sql db ~name:q.Workload.Job.name q.Workload.Job.sql)
          .Sqlfront.Binder.graph
      in
      let ctx = { Cardest.Systems.db; graph } in
      let n = QG.n_relations graph in
      let tables =
        Array.map (fun (r : QG.relation) -> Storage.Table.name r.QG.table) (QG.relations graph)
      in
      List.iter
        (fun (name, system, sampling) ->
          Array.iteri
            (fun r t ->
              let rows = Storage.Table.row_count (QG.relation graph r).QG.table in
              let aliases = Array.fold_left (fun k t' -> if t' = t then k + 1 else k) 0 tables in
              if rows > sampling.Cardest.Systems.sample_size && aliases > 1 then incr aliased_draws)
            tables;
          List.iter
            (fun order ->
              let base = (system analyze ctx).Cardest.Systems.base
              and reference = keep_every_sample sampling ctx in
              List.iter
                (fun r ->
                  let got = base r and want = reference r in
                  if bits got <> bits want then
                    Alcotest.failf "%s %s relation %d at scale %g: %h, reference %h"
                      q.Workload.Job.name name r scale got want)
                order)
            (let forward = List.init n Fun.id in
             let reverse = List.rev forward in
             [ forward @ reverse; List.concat_map (fun r -> [ r; r ]) reverse @ forward ]))
        [
          ("DBMS A", Cardest.Systems.dbms_a_parts, Cardest.Systems.dbms_a_sampling);
          ("HyPer", Cardest.Systems.hyper_parts, Cardest.Systems.hyper_sampling);
        ])
    Workload.Job.all;
  !aliased_draws

let test_sample_bases_match_reference () =
  ignore (check_sample_bases ~scale:0.001);
  Alcotest.(check bool) "0.01 draws samples shared by two aliases" true
    (check_sample_bases ~scale:0.01 > 0)

(* What the pipeline keeps after the optimizer-matrix pass: the 66
   queries at 0.001, exact cardinalities, then every estimator under
   every cost model planned through the caches. Cached estimator
   instances keep their estimates, not row samples or boxed memo
   entries, so the whole pipeline, database included, stays under
   6 MiB. *)
let test_matrix_pass_retention () =
  let db = Support.fresh_imdb ~seed:42 ~scale:0.001 () in
  let pipe = Core.Pipeline.create db in
  let queries =
    List.concat_map
      (fun (_, variants) -> List.filteri (fun i _ -> i < 2) variants)
      Workload.Job.families
  in
  let bound =
    List.map
      (fun (q : Workload.Job.query) ->
        Core.Pipeline.bind pipe ~name:q.Workload.Job.name q.Workload.Job.sql)
      queries
  in
  Core.Pipeline.warm_statistics pipe bound;
  List.iter
    (fun q ->
      ignore (Core.Pipeline.truth pipe q);
      List.iter
        (fun estimator ->
          List.iter
            (fun cost_model -> ignore (Core.Pipeline.plan pipe ~estimator ~cost_model q))
            [ "PostgreSQL"; "tuned"; "Cmm" ])
        [ "PostgreSQL"; "DBMS A"; "DBMS B"; "DBMS C"; "HyPer"; "true" ])
    bound;
  let mib = float_of_int (Obj.reachable_words (Obj.repr pipe) * (Sys.word_size / 8)) /. 1048576.0 in
  Alcotest.(check bool) (Printf.sprintf "pipeline holds %.2f MiB, under 6" mib) true (mib < 6.0)

let suite =
  [
    true_card_matches_brute_force;
    true_card_matches_brute_force_cyclic;
    true_card_matches_brute_force_second_edge;
    Alcotest.test_case "true card: two columns of one relation in a class" `Quick
      test_true_card_two_columns_one_class;
    true_card_matches_reference;
    true_card_matches_reference_cyclic;
    Alcotest.test_case "true card = reference on JOB" `Slow test_true_card_job_reference;
    Alcotest.test_case "true card on IMDB query" `Quick test_true_card_imdb_query;
    Alcotest.test_case "true card zero result" `Quick test_true_card_zero_result;
    Alcotest.test_case "true card disconnected" `Quick test_true_card_rejects_disconnected;
    Alcotest.test_case "clamp to one" `Quick test_compositional_singleton_and_clamp;
    Alcotest.test_case "floor rounding" `Quick test_compositional_floor;
    Alcotest.test_case "independence formula" `Quick test_compositional_independence_formula;
    Alcotest.test_case "backoff damping" `Quick test_backoff_raises_estimates;
    estimator_memo_deterministic;
    Alcotest.test_case "textbook edge selectivity" `Quick test_textbook_edge_selectivity;
    Alcotest.test_case "mcv equality selectivity" `Quick test_selectivity_mcv_equality;
    Alcotest.test_case "OR selectivity formula" `Quick test_selectivity_or_formula;
    test_selectivity_bounds;
    Alcotest.test_case "all systems finite" `Quick test_all_systems_positive_finite;
    Alcotest.test_case "DBMS B integral" `Quick test_dbms_b_estimates_integral;
    Alcotest.test_case "true-distinct variant" `Quick
      test_postgres_true_distinct_variant_differs;
    Alcotest.test_case "sample estimators beat magic" `Quick
      test_sample_estimators_good_base;
    Alcotest.test_case "ordinal memo = Hashtbl reference on JOB" `Slow
      test_ordinal_memo_matches_hashtbl;
    Alcotest.test_case "sample bases = keep-every-sample reference" `Slow
      test_sample_bases_match_reference;
    Alcotest.test_case "matrix pass retention under 6 MiB" `Slow test_matrix_pass_retention;
  ]
