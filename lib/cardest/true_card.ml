module Bitset = Util.Bitset
module QG = Query.Query_graph
module GT = Group_table

(* Exact counts indexed by the ordinals of [QG.connected_subsets]. *)
type t = {
  graph : QG.t;
  cards : float array;
}

let array_mem x a = Array.exists (fun y -> y = x) a

(* ------------------------------------------------------------------ *)
(* Compressed relations: multiplicity per join-class value tuple       *)

type compressed = {
  classes : int array;
      (* what each key field holds, ascending: a column id in the base
         groups, a subset's class id once projected for the fallback *)
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
    for id = 0 to GT.groups c.groups - 1 do
      extract c.groups id pos dst;
      GT.add_scratch groups (GT.count c.groups id)
    done;
    { classes = onto; groups }
  end

let total c = GT.total c.groups

(* Base groups are keyed by raw column ids: every join column of the
   relation, ascending. A subset reads them as they are, through the
   class labels of its columns (below); only the cyclic fallback
   projects them. The row loop is the single hottest spot of Table 1:
   predicates run through a selection vector (one compaction pass per
   atom instead of a closure call per row), and each surviving row
   aggregates through the table's scratch key without allocating. *)
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
(* Join-attribute classes of one subset                                *)

(* The query's join columns, numbered: relation [r]'s base key fields
   are the slots [first.(r)] .. [first.(r + 1) - 1], in key order. A
   subset's classes come from union-find over the slots its own edges
   join (not the whole query's transitive closure): that matches the
   executor and the enumerator, where a subexpression applies exactly
   the join predicates whose both sides it contains. The slot and edge
   numbering is fixed per graph; the rest is scratch that each subset
   overwrites for its own members only. *)
type work = {
  first : int array;
  emask : int array;  (** per edge, in [QG.edges] order: its two relations *)
  eleft : int array;  (** per edge: slot of the left column *)
  eright : int array;
  parent : int array;  (** union-find over slots *)
  class_of_root : int array;
  label : int array;
      (** class of a slot within the subset, or -1 when no inside edge
          uses the column *)
  nullf : int array array;
      (** per relation, per base group: the key positions holding NULL,
          as bits; empty when no key position does *)
  lmask : int array;  (** per relation: its labelled key positions, as bits *)
  dups : int array array;
      (** per relation: flattened pairs of key positions, a column and
          the first column of the relation in the same class; usually
          empty *)
  cmask : int array;  (** per relation: its classes, as bits *)
  order : int array;  (** join-tree nodes in the order Prim adds them *)
  tparent : int array;  (** per relation: its join-tree parent *)
  msg : GT.t array;  (** per relation: its message to its parent *)
  child_msg : GT.t array;
  child_pos : int array array;
  pool : GT.t list array;
      (** free message tables by arity, for one [compute] call *)
}

let null_fields b =
  let mask id =
    let m = ref 0 in
    for f = 0 to Array.length b.classes - 1 do
      if GT.component b.groups id f = Storage.Value.null_code then m := !m lor (1 lsl f)
    done;
    !m
  in
  let n = GT.groups b.groups in
  let id = ref 0 in
  while !id < n && mask !id = 0 do
    incr id
  done;
  if !id = n then [||] else Array.init n mask

let make_work graph (base : compressed array) =
  let n = QG.n_relations graph in
  let first = Array.make (n + 1) 0 in
  for r = 0 to n - 1 do
    first.(r + 1) <- first.(r) + Array.length base.(r).classes
  done;
  let slots = first.(n) in
  let slot r col = first.(r) + Option.get (Array.find_index (( = ) col) base.(r).classes) in
  let edges = Array.of_list (QG.edges graph) in
  let dummy = GT.create ~arity:0 ~expected:1 () in
  let widest = Array.fold_left (fun acc b -> max acc (Array.length b.classes)) 0 base in
  {
    first;
    emask = Array.map (fun (e : QG.edge) -> Bitset.of_list [ e.left; e.right ]) edges;
    eleft = Array.map (fun (e : QG.edge) -> slot e.left e.left_col) edges;
    eright = Array.map (fun (e : QG.edge) -> slot e.right e.right_col) edges;
    parent = Array.make slots 0;
    class_of_root = Array.make slots 0;
    label = Array.make slots 0;
    nullf = Array.map null_fields base;
    lmask = Array.make n 0;
    dups = Array.make n [||];
    cmask = Array.make n 0;
    order = Array.make n 0;
    tparent = Array.make n 0;
    msg = Array.make n dummy;
    child_msg = Array.make n dummy;
    child_pos = Array.make n [||];
    pool = Array.make (widest + 1) [];
  }

let rec find parent x =
  let p = parent.(x) in
  if p = x then x
  else begin
    let root = find parent p in
    parent.(x) <- root;
    root
  end

let inside w s e = Bitset.subset w.emask.(e) s

(* Give the slot's class an id (numbered in order of first mention) and
   label the slot with it. *)
let mark w next x =
  let root = find w.parent x in
  if w.class_of_root.(root) < 0 then begin
    w.class_of_root.(root) <- !next;
    incr next
  end;
  w.label.(x) <- w.class_of_root.(root)

(* Label the members' slots for subset [s] and set each member's
   [lmask] and [dups]; returns the class count. *)
let classify w s =
  let m = ref s in
  while !m <> 0 do
    let r = Bitset.lowest !m in
    for k = w.first.(r) to w.first.(r + 1) - 1 do
      w.parent.(k) <- k;
      w.class_of_root.(k) <- -1;
      w.label.(k) <- -1
    done;
    m := !m land (!m - 1)
  done;
  for e = 0 to Array.length w.emask - 1 do
    if inside w s e then begin
      let a = find w.parent w.eleft.(e) and b = find w.parent w.eright.(e) in
      if a <> b then w.parent.(a) <- b
    end
  done;
  let next = ref 0 in
  for e = 0 to Array.length w.emask - 1 do
    if inside w s e then begin
      mark w next w.eleft.(e);
      mark w next w.eright.(e)
    end
  done;
  let m = ref s in
  while !m <> 0 do
    let r = Bitset.lowest !m in
    let lmask = ref 0 and dups = ref [] in
    for k = w.first.(r + 1) - 1 downto w.first.(r) do
      let c = w.label.(k) in
      if c >= 0 then begin
        lmask := !lmask lor (1 lsl (k - w.first.(r)));
        let j = ref w.first.(r) in
        while w.label.(!j) <> c do
          incr j
        done;
        if !j < k then dups := (!j - w.first.(r)) :: (k - w.first.(r)) :: !dups
      end
    done;
    w.lmask.(r) <- !lmask;
    w.dups.(r) <- Array.of_list !dups;
    m := !m land (!m - 1)
  done;
  !next

(* Each member's labelled classes, as bits. *)
let class_masks w s =
  let m = ref s in
  while !m <> 0 do
    let r = Bitset.lowest !m in
    let mask = ref Bitset.empty in
    for k = w.first.(r) to w.first.(r + 1) - 1 do
      if w.label.(k) >= 0 then mask := Bitset.add w.label.(k) !mask
    done;
    w.cmask.(r) <- !mask;
    m := !m land (!m - 1)
  done

(* Key positions, in [r]'s base key, of the classes in [mask],
   ascending by class: the layout of a message over those classes. A
   class that labels two columns of [r] is read from the first. *)
let positions_of w r mask =
  let pos = Array.make (Bitset.cardinal mask) 0 in
  let m = ref mask and f = ref 0 in
  while !m <> 0 do
    let c = Bitset.lowest !m in
    let k = ref w.first.(r) in
    while w.label.(!k) <> c do
      incr k
    done;
    pos.(!f) <- !k - w.first.(r);
    incr f;
    m := !m land (!m - 1)
  done;
  pos

(* Whether group [id] of [r]'s base groups [g] can join inside the
   subset: none of its labelled columns is NULL, which equals nothing,
   and each column shares its value with the first column of its
   class ([dups]). *)
let joins w r g id =
  let nf = w.nullf.(r) in
  (Array.length nf = 0 || nf.(id) land w.lmask.(r) = 0)
  &&
  let eq = w.dups.(r) in
  let ok = ref true and i = ref 0 in
  while !ok && !i < Array.length eq do
    ok := GT.component g id eq.(!i) = GT.component g id eq.(!i + 1);
    i := !i + 2
  done;
  !ok

(* ------------------------------------------------------------------ *)
(* Join trees                                                          *)

(* A join tree over the [k] members of [s], rooted at the lowest: a
   maximum spanning tree (Prim) of the "shared class count" graph,
   ties to the first pair met (outside nodes ascending, tree nodes
   newest first). Fills [order] and [tparent]; returns whether it has
   the running-intersection property — every class's nodes form one
   subtree — which holds whenever the subset is acyclic. *)
let join_tree w s k =
  let root = Bitset.lowest s in
  w.order.(0) <- root;
  w.tparent.(root) <- -1;
  let out = ref (Bitset.remove root s) in
  for step = 1 to k - 1 do
    let best = ref 0 and bi = ref (-1) and bo = ref (-1) in
    let m = ref !out in
    while !m <> 0 do
      let o = Bitset.lowest !m in
      for j = step - 1 downto 0 do
        let i = w.order.(j) in
        let shared = Bitset.cardinal (Bitset.inter w.cmask.(i) w.cmask.(o)) in
        if shared > !best then begin
          best := shared;
          bi := i;
          bo := o
        end
      done;
      m := !m land (!m - 1)
    done;
    if !best = 0 then invalid_arg "True_card.join_tree: disconnected subset";
    w.order.(step) <- !bo;
    w.tparent.(!bo) <- !bi;
    out := Bitset.remove !bo !out
  done;
  (* A class starts a subtree at a node that has it and whose parent
     does not; a second start breaks running intersection. *)
  let seen = ref Bitset.empty and ok = ref true in
  for j = 0 to k - 1 do
    let v = w.order.(j) in
    let starts =
      if j = 0 then w.cmask.(v) else Bitset.diff w.cmask.(v) w.cmask.(w.tparent.(v))
    in
    if not (Bitset.disjoint !seen starts) then ok := false;
    seen := Bitset.union !seen starts
  done;
  !ok

(* ------------------------------------------------------------------ *)
(* Counting                                                            *)

let acquire w arity =
  match w.pool.(arity) with
  | t :: rest ->
      w.pool.(arity) <- rest;
      GT.clear t;
      t
  | [] -> GT.create ~arity ()

let release w t = w.pool.(GT.arity t) <- t :: w.pool.(GT.arity t)

(* Multiply each group of [v]'s base groups [g] that [joins] by its [n]
   children's messages, looked up through [child_pos]; add each non-zero
   weight into [out] under the fields [out_pos] or, at the root, into
   the returned sum. No closure and no captured ref, and every
   multiplicity is read from and added into the tables' count arrays
   here: the weights stay unboxed. *)
let absorb w v g n ~out ~out_pos =
  let sum = ref 0.0 in
  let every = Array.length w.nullf.(v) = 0 && Array.length w.dups.(v) = 0 in
  let gcounts = GT.counts g in
  for id = 0 to GT.groups g - 1 do
    let wt = ref (if every || joins w v g id then gcounts.(id) else 0.0) in
    let q = ref 0 in
    while !q < n && !wt > 0.0 do
      let msg = w.child_msg.(!q) in
      extract g id w.child_pos.(!q) (GT.scratch msg);
      let mid = GT.find msg in
      wt := if mid < 0 then 0.0 else !wt *. (GT.counts msg).(mid);
      incr q
    done;
    if !wt > 0.0 then
      match out with
      | None -> sum := !sum +. !wt
      | Some out ->
          extract g id out_pos (GT.scratch out);
          let oid = GT.find_or_add out in
          let ocounts = GT.counts out in
          ocounts.(oid) <- ocounts.(oid) +. !wt
  done;
  !sum

(* Yannakakis-style bottom-up counting over the join tree, leaves
   first: each node folds its children's messages into its own base
   groups and sends its parent the multiplicities keyed by the classes
   they share. Linear in the base groups' sizes, never materializing
   anything wider than one relation's own key. *)
let count_acyclic w (base : compressed array) k =
  let scalar = ref 0.0 in
  for j = k - 1 downto 0 do
    let v = w.order.(j) in
    let n = ref 0 in
    for q = j + 1 to k - 1 do
      let u = w.order.(q) in
      if w.tparent.(u) = v then begin
        w.child_msg.(!n) <- w.msg.(u);
        w.child_pos.(!n) <- positions_of w v (Bitset.inter w.cmask.(v) w.cmask.(u));
        incr n
      end
    done;
    let g = base.(v).groups in
    if j = 0 then scalar := absorb w v g !n ~out:None ~out_pos:[||]
    else begin
      let shared = Bitset.inter w.cmask.(v) w.cmask.(w.tparent.(v)) in
      let out = acquire w (Bitset.cardinal shared) in
      ignore (absorb w v g !n ~out:(Some out) ~out_pos:(positions_of w v shared));
      w.msg.(v) <- out
    end;
    for q = 0 to !n - 1 do
      release w w.child_msg.(q)
    done
  done;
  !scalar

(* Fallback for cyclic subsets (e.g. TPC-H Q5), over the members'
   groups projected onto their subset classes: left-deep pairwise joins,
   projecting after every step onto the classes still referenced by the
   remaining relations. *)
let count_cyclic (local : compressed array) members =
  let shares a b = Array.exists (fun c -> array_mem c local.(b).classes) local.(a).classes in
  match members with
  | [] -> invalid_arg "True_card.count_cyclic: empty"
  | first :: rest ->
      (* Join in an order that keeps every prefix connected. *)
      let order = ref [ first ] in
      let remaining = ref rest in
      while !remaining <> [] do
        let next =
          List.find (fun r -> List.exists (fun i -> shares i r) !order) !remaining
        in
        order := !order @ [ next ];
        remaining := List.filter (fun r -> r <> next) !remaining
      done;
      let order = !order in
      let classes_of rs =
        List.concat_map (fun r -> Array.to_list local.(r).classes) rs
        |> List.sort_uniq compare |> Array.of_list
      in
      let filter_mem a keep =
        Array.of_list (List.filter (fun c -> array_mem c keep) (Array.to_list a))
      in
      let rec go acc = function
        | [] -> total acc
        | r :: rest ->
            let g = local.(r) in
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
      go local.(first) (List.tl order)

(* Relation [r]'s base groups that [joins], projected onto one column
   per subset class, keyed by those class ids ascending. *)
let localize w (base : compressed array) r =
  let pairs = ref [] in
  for k = w.first.(r + 1) - 1 downto w.first.(r) do
    if w.label.(k) >= 0 then pairs := (w.label.(k), k - w.first.(r)) :: !pairs
  done;
  let pairs = List.sort_uniq (fun (a, _) (b, _) -> compare a b) !pairs in
  let pos = Array.of_list (List.map snd pairs) in
  let src = base.(r).groups in
  let groups = GT.create ~arity:(Array.length pos) ~expected:(GT.groups src) () in
  for id = 0 to GT.groups src - 1 do
    if joins w r src id then begin
      extract src id pos (GT.scratch groups);
      GT.add_scratch groups (GT.count src id)
    end
  done;
  { classes = Array.of_list (List.map fst pairs); groups }

(* ------------------------------------------------------------------ *)

let compute graph =
  let base = Array.init (QG.n_relations graph) (base_compressed graph) in
  let w = make_work graph base in
  let count s =
    let k = Bitset.cardinal s in
    if k = 1 then total base.(Bitset.lowest s)
    else begin
      (* Class ids index the bits of [cmask], so a subset with more
         than 62 classes takes the fallback too. *)
      let acyclic =
        classify w s <= 62
        && begin
             class_masks w s;
             join_tree w s k
           end
      in
      if acyclic then count_acyclic w base k
      else begin
        let members = Bitset.to_list s in
        let local = Array.copy base in
        List.iter (fun r -> local.(r) <- localize w base r) members;
        count_cyclic local members
      end
    end
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
