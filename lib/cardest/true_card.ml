module Bitset = Util.Bitset
module QG = Query.Query_graph
module GT = Group_table

(* Exact counts indexed by the ordinals of [QG.connected_subsets]. *)
type t = {
  graph : QG.t;
  cards : float array;
}

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
  (* Per-class chunk views: flat columns are read in place (offset 0);
     compressed columns decode the current chunk into scratch, with the
     chunk start as the offset. Row [r]'s code is [arrs.(f).(r - offs.(f))]. *)
  let flat = Array.map Storage.Column.flat_view cols in
  let arrs =
    Array.map (function Some a -> a | None -> Array.make chunk 0) flat
  in
  let offs = Array.make (max nfields 1) 0 in
  let row = ref 0 in
  while !row < nrows do
    let stop = min nrows (!row + chunk) in
    for f = 0 to nfields - 1 do
      if flat.(f) = None then begin
        Storage.Column.decode_into cols.(f) ~row_start:!row ~len:(stop - !row)
          arrs.(f);
        offs.(f) <- !row
      end
    done;
    let m = fill sel !row stop in
    for k = 0 to m - 1 do
      let r = Array.unsafe_get sel k in
      for f = 0 to nfields - 1 do
        Array.unsafe_set key f
          (Array.unsafe_get
             (Array.unsafe_get arrs f)
             (r - Array.unsafe_get offs f))
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
          w := !w *. GT.find_scratch msg
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

(* domlint: safe [R1] — empty sentinel shared read-only, never grown *)
let empty_compressed =
  { classes = [||]; groups = GT.create ~arity:0 ~expected:1 () }

let compute graph =
  let n = QG.n_relations graph in
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
  let cards = Array.map count (QG.connected_subsets graph) in
  { graph; cards }

let card t s =
  match QG.subset_ordinal t.graph s with
  | Some o -> t.cards.(o)
  | None ->
      invalid_arg
        (Format.asprintf "True_card.card: subset %a is not connected in %s"
           Bitset.pp s (QG.name t.graph))

let base t r = card t (Bitset.singleton r)

let estimator t =
  Estimator.of_function ~name:"true" ~base:(base t) (card t)

let subset_count t = Array.length t.cards
