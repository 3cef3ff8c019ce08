module Bitset = Util.Bitset
module QG = Query.Query_graph

type t = {
  name : string;
  base : int -> float;
  subset : Bitset.t -> float;
}

type combine =
  | Independence
  | Backoff of float

type rounding =
  | No_rounding
  | Clamp_one
  | Floor_one

let apply_rounding rounding x =
  match rounding with
  | No_rounding -> x
  | Clamp_one -> Float.max 1.0 x
  | Floor_one -> Float.max 1.0 (Float.of_int (int_of_float x))

(* Deterministic decomposition: the highest-index relation whose removal
   keeps the subset connected (one always exists in a connected graph). *)
let canonical_split graph s =
  let rec go r =
    if r < 0 then invalid_arg "Estimator: disconnected subset"
    else if Bitset.mem r s && QG.is_connected graph (Bitset.remove r s) then r
    else go (r - 1)
  in
  go (QG.n_relations graph - 1)

let compositional ~name ~graph ~base ~edge_selectivity ?(combine = Independence)
    ?(rounding = No_rounding) () =
  let base_cache = Array.make (QG.n_relations graph) None in
  let base_memo r =
    match base_cache.(r) with
    | Some v -> v
    | None ->
        let v = base r in
        base_cache.(r) <- Some v;
        v
  in
  (* Multi-relation estimates by subset ordinal, NaN while absent: a hit
     is one float load, and a cached instance holds one unboxed word per
     connected subset. Allocated on the first multi-relation probe, so
     an instance only ever asked for base estimates never forces the
     graph's plan space. *)
  let memo = ref [||] in
  (* Each edge's two relations as a mask, and the edge oriented both
     ways, so a probe filters no list and allocates no edge. *)
  let edges = Array.of_list (QG.edges graph) in
  let flipped = Array.map QG.flip edges in
  let emask = Array.map (fun (e : QG.edge) -> Bitset.of_list [ e.QG.left; e.QG.right ]) edges in
  (* Number of edges already applied inside a subset, for backoff
     numbering (deterministic because the decomposition is canonical). *)
  let edges_inside s =
    let k = ref 0 in
    Array.iter (fun m -> if Bitset.subset m s then incr k) emask;
    !k
  in
  (* A subset of two or more relations, from its canonical split [r]
     and the rest. *)
  let rec estimate s =
    let r = canonical_split graph s in
    let rest = Bitset.remove r s in
    let rest_est = subset rest in
    let base_est = base_memo r in
    (* The edges between [rest] and [r], in edge order, each with
       [left] in [rest] (as [QG.edges_between rest {r}] gives them). *)
    let joined = ref (rest_est *. base_est) and j = ref (edges_inside rest) in
    for i = 0 to Array.length edges - 1 do
      if Bitset.mem r emask.(i) && Bitset.subset emask.(i) s then begin
        let e = if edges.(i).QG.right = r then edges.(i) else flipped.(i) in
        let sel = edge_selectivity e in
        let sel =
          match combine with
          | Independence -> sel
          | Backoff c ->
              (* Every join selectivity after the first is damped
                 by a constant exponent c < 1 (raised toward 1):
                 the more predicates, the less the system trusts
                 full independence. *)
              if !j = 0 then sel else sel ** c
        in
        joined := !joined *. sel;
        incr j
      end
    done;
    apply_rounding rounding !joined
  and subset s =
    if Bitset.is_empty s then invalid_arg "Estimator: empty subset"
    else if Bitset.cardinal s = 1 then
      apply_rounding rounding (base_memo (Bitset.lowest s))
    else begin
      if Array.length !memo = 0 then
        memo := Array.make (Array.length (QG.connected_subsets graph)) Float.nan;
      match QG.subset_ordinal graph s with
      | None -> estimate s (* disconnected: no ordinal, never kept *)
      | Some o ->
          if Float.is_nan !memo.(o) then !memo.(o) <- estimate s;
          !memo.(o)
    end
  in
  { name; base = base_memo; subset }

let of_function ~name ~base subset = { name; base; subset }

let textbook_edge_selectivity ~dom (e : QG.edge) =
  let dl = Float.max 1.0 (dom ~rel:e.QG.left ~col:e.QG.left_col) in
  let dr = Float.max 1.0 (dom ~rel:e.QG.right ~col:e.QG.right_col) in
  1.0 /. Float.max dl dr
