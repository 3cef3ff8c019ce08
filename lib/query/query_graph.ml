module Bitset = Util.Bitset

type relation = {
  idx : int;
  alias : string;
  table : Storage.Table.t;
  preds : Predicate.t;
}

type edge = {
  left : int;
  left_col : int;
  right : int;
  right_col : int;
  pk_side : [ `Left | `Right ] option;
}

(* Off-heap int vectors: the split lists of every bound graph stay
   resident, and kept outside the OCaml heap they add nothing to what the
   major GC marks and paces itself by. *)
module Ints = Bigarray.Array1

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Ints.t

(* The plan space of a graph: its connected subsets, sorted by (size,
   mask) — the index is the subset's ordinal — and for each the ordered
   ways to split it into two connected halves. *)
type space = {
  subsets : Bitset.t array;
  size_start : int array;  (** first ordinal of each size; length n + 2 *)
  split_start : ints;  (** subset [o]'s splits: [split_start.{o} .. split_start.{o+1}-1] *)
  split_pairs : ints;  (** split [i]: outer ordinal at [2i], inner at [2i+1] *)
}

type t = {
  name : string;
  relations : relation array;
  edges : edge list;
  adjacency : Bitset.t array;
  by_alias : (string, int) Hashtbl.t;
  space : space Util.Once.t;
}

(* Every non-empty subset of [s], [s] included. *)
let iter_nonempty_subsets s f =
  let sub = ref s in
  while !sub <> 0 do
    f !sub;
    sub := (!sub - 1) land s
  done

(* The union of the members' adjacency masks: a bit loop that takes
   the lowest member and clears it. *)
let adjacent_to adjacency s =
  let acc = ref Bitset.empty and rest = ref s in
  while !rest <> 0 do
    acc := Bitset.union !acc adjacency.(Bitset.lowest !rest);
    rest := !rest land (!rest - 1)
  done;
  !acc

let neighbors_of adjacency s = Bitset.diff (adjacent_to adjacency s) s

(* Relations 0..i, the "B_i" of DPccp. *)
let prefix i = (1 lsl (i + 1)) - 1

(* Moerkotte & Neumann's DPccp enumeration (VLDB 2006): EnumerateCsgRec
   grows the connected set [s] by non-empty subsets of its neighbours
   outside the exclusion set [x], emitting each connected superset once. *)
let rec csg_rec adjacency emit s x =
  let nb = Bitset.diff (neighbors_of adjacency s) x in
  if nb <> 0 then begin
    iter_nonempty_subsets nb (fun s' -> emit (Bitset.union s s'));
    let x = Bitset.union x nb in
    iter_nonempty_subsets nb (fun s' -> csg_rec adjacency emit (Bitset.union s s') x)
  end

(* EnumerateCsg: every connected subset exactly once. *)
let iter_csg adjacency f =
  for i = Array.length adjacency - 1 downto 0 do
    f (Bitset.singleton i);
    csg_rec adjacency f (Bitset.singleton i) (prefix i)
  done

(* EnumerateCmp: every connected [s2] adjacent to and disjoint from the
   connected [s1] whose lowest relation is above [s1]'s — so each
   unordered csg-cmp pair is met exactly once. *)
let iter_cmp adjacency s1 f =
  let x = Bitset.union (prefix (Bitset.lowest s1)) s1 in
  let nb = Bitset.diff (neighbors_of adjacency s1) x in
  for i = Array.length adjacency - 1 downto 0 do
    if Bitset.mem i nb then begin
      f (Bitset.singleton i);
      csg_rec adjacency f (Bitset.singleton i) (Bitset.union x (Bitset.inter (prefix i) nb))
    end
  done

(* Binary search of [s] among the subsets of its size. *)
let find_ordinal subsets size_start s =
  let k = Bitset.cardinal s in
  if k = 0 || k >= Array.length size_start - 1 then -1
  else begin
    let lo = ref size_start.(k) and hi = ref size_start.(k + 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if subsets.(mid) < s then lo := mid + 1 else hi := mid
    done;
    if !lo < size_start.(k + 1) && subsets.(!lo) = s then !lo else -1
  end

module Subset_table = Hashtbl.Make (Bitset)

(* A split's sort key packs three 20-bit fields into one int. *)
let ordinal_bits = 20
let ordinal_mask = (1 lsl ordinal_bits) - 1

let enumerate adjacency =
  let n = Array.length adjacency in
  (* Connected subsets by mask, then stably by size: (size, mask) order.
     [by_mask.(r)] is the ordinal of the subset of mask rank [r]. *)
  let found = ref [] in
  iter_csg adjacency (fun s -> found := s :: !found);
  let masks = Array.of_list !found in
  Util.Radix.sort masks;
  let m = Array.length masks in
  if m > 1 lsl ordinal_bits then invalid_arg "Query_graph: more than 2^20 connected subsets";
  let size_start = Array.make (n + 2) 0 in
  Array.iter
    (fun s ->
      let k = Bitset.cardinal s + 1 in
      size_start.(k) <- size_start.(k) + 1)
    masks;
  for k = 1 to n + 1 do
    size_start.(k) <- size_start.(k) + size_start.(k - 1)
  done;
  let next = Array.copy size_start in
  let subsets = Array.make m 0 and by_mask = Array.make m 0 and mask_rank = Array.make m 0 in
  Array.iteri
    (fun r s ->
      let k = Bitset.cardinal s in
      let o = next.(k) in
      next.(k) <- o + 1;
      subsets.(o) <- s;
      by_mask.(r) <- o;
      mask_rank.(o) <- r)
    masks;
  let ordinal = Subset_table.create m in
  Array.iteri (fun o s -> Subset_table.add ordinal s o) subsets;
  (* Both orientations of each csg-cmp pair, as one sort key: the union's
     ordinal, then the outer half's mask descending (DPsub's visiting
     order), then the inner's ordinal. The pairs are counted first so
     the keys take one allocation of the right size. *)
  let npairs = ref 0 in
  Array.iter (fun s1 -> iter_cmp adjacency s1 (fun _ -> incr npairs)) subsets;
  let keys = Array.make (2 * !npairs) 0 and len = ref 0 in
  let push o outer inner =
    keys.(!len) <-
      (o lsl (2 * ordinal_bits))
      lor ((m - 1 - mask_rank.(outer)) lsl ordinal_bits)
      lor inner;
    incr len
  in
  Array.iteri
    (fun o1 s1 ->
      iter_cmp adjacency s1 (fun s2 ->
          let o2 = Subset_table.find ordinal s2 in
          let o = Subset_table.find ordinal (Bitset.union s1 s2) in
          push o o1 o2;
          push o o2 o1))
    subsets;
  Util.Radix.sort keys;
  let split_start = Ints.create Bigarray.int Bigarray.c_layout (m + 1) in
  let split_pairs = Ints.create Bigarray.int Bigarray.c_layout (2 * !len) in
  Ints.fill split_start 0;
  Array.iteri
    (fun i key ->
      let o = key lsr (2 * ordinal_bits) in
      split_start.{o + 1} <- i + 1;
      split_pairs.{2 * i} <- by_mask.(m - 1 - ((key lsr ordinal_bits) land ordinal_mask));
      split_pairs.{(2 * i) + 1} <- key land ordinal_mask)
    keys;
  (* Subsets without splits (the singletons) end where the previous one
     does. *)
  for o = 1 to m do
    split_start.{o} <- max split_start.{o} split_start.{o - 1}
  done;
  { subsets; size_start; split_start; split_pairs }

let create ~name relations edges =
  let n = Array.length relations in
  if n = 0 then invalid_arg "Query_graph.create: no relations";
  if n > 62 then invalid_arg "Query_graph.create: too many relations";
  Array.iteri
    (fun i r ->
      if r.idx <> i then invalid_arg "Query_graph.create: relation idx mismatch")
    relations;
  let adjacency = Array.make n Bitset.empty in
  List.iter
    (fun e ->
      if e.left < 0 || e.left >= n || e.right < 0 || e.right >= n || e.left = e.right
      then invalid_arg "Query_graph.create: bad edge endpoints";
      adjacency.(e.left) <- Bitset.add e.right adjacency.(e.left);
      adjacency.(e.right) <- Bitset.add e.left adjacency.(e.right))
    edges;
  let by_alias = Hashtbl.create n in
  Array.iter
    (fun r ->
      if Hashtbl.mem by_alias r.alias then
        invalid_arg (Printf.sprintf "Query_graph.create: duplicate alias %s" r.alias);
      Hashtbl.add by_alias r.alias r.idx)
    relations;
  let space = Util.Once.make (fun () -> enumerate adjacency) in
  let graph = { name; relations; edges; adjacency; by_alias; space } in
  (* Reject disconnected graphs: they would force cross products. *)
  let reached = ref (Bitset.singleton 0) in
  let changed = ref true in
  while !changed do
    changed := false;
    Bitset.iter
      (fun r ->
        let grown = Bitset.union !reached adjacency.(r) in
        if grown <> !reached then begin
          reached := grown;
          changed := true
        end)
      !reached
  done;
  if !reached <> Bitset.full n then
    invalid_arg (Printf.sprintf "Query_graph.create: query %s is disconnected" name);
  graph

let name t = t.name
let n_relations t = Array.length t.relations
let relations t = t.relations
let relation t i = t.relations.(i)
let edges t = t.edges
let n_edges t = List.length t.edges

let relation_by_alias t alias =
  Option.map (fun i -> t.relations.(i)) (Hashtbl.find_opt t.by_alias alias)

let adjacency t i = t.adjacency.(i)

let neighbors t s = neighbors_of t.adjacency s

(* Breadth-first from the lowest member: each round adds the members
   adjacent to the last round's additions. *)
let is_connected t s =
  if Bitset.is_empty s then false
  else begin
    let reached = ref (Bitset.lowest_bit s) in
    let frontier = ref !reached in
    while !frontier <> 0 do
      frontier := Bitset.diff (Bitset.inter (adjacent_to t.adjacency !frontier) s) !reached;
      reached := Bitset.union !reached !frontier
    done;
    !reached = s
  end

let flip e =
  {
    left = e.right;
    left_col = e.right_col;
    right = e.left;
    right_col = e.left_col;
    pk_side =
      (match e.pk_side with
      | Some `Left -> Some `Right
      | Some `Right -> Some `Left
      | None -> None);
  }

let edges_between t s1 s2 =
  assert (Bitset.disjoint s1 s2);
  List.filter_map
    (fun e ->
      if Bitset.mem e.left s1 && Bitset.mem e.right s2 then Some e
      else if Bitset.mem e.left s2 && Bitset.mem e.right s1 then Some (flip e)
      else None)
    t.edges

let space t = Util.Once.force t.space
let connected_subsets t = (space t).subsets

let subset_ordinal t s =
  let sp = space t in
  match find_ordinal sp.subsets sp.size_start s with -1 -> None | o -> Some o

let iter_splits t o f =
  let sp = space t in
  for i = sp.split_start.{o} to sp.split_start.{o + 1} - 1 do
    f sp.split_pairs.{2 * i} sp.split_pairs.{(2 * i) + 1}
  done

let join_columns t i =
  let cols =
    List.concat_map
      (fun e ->
        (if e.left = i then [ e.left_col ] else [])
        @ if e.right = i then [ e.right_col ] else [])
      t.edges
  in
  List.sort_uniq compare cols

let full_set t = Bitset.full (n_relations t)

let pp fmt t =
  Format.fprintf fmt "query %s (%d relations, %d join predicates)@." t.name
    (n_relations t) (n_edges t);
  Array.iter
    (fun r ->
      Format.fprintf fmt "  %s AS %s WHERE %a@."
        (Storage.Table.name r.table)
        r.alias
        (Predicate.pp r.table)
        r.preds)
    t.relations;
  List.iter
    (fun e ->
      let rel i = t.relations.(i) in
      let col r c = Storage.Column.name (Storage.Table.column (rel r).table c) in
      Format.fprintf fmt "  %s.%s = %s.%s%s@." (rel e.left).alias
        (col e.left e.left_col) (rel e.right).alias
        (col e.right e.right_col)
        (match e.pk_side with
        | Some `Left -> "  [PK left]"
        | Some `Right -> "  [PK right]"
        | None -> "  [FK/FK]"))
    t.edges
