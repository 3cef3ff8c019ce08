(* The feedback store: query-subgraph -> observed (exact) cardinality,
   filled by the executor's checkpoint hook and consumed as an overlay
   over an emulated system's estimator. Keyed with Bitset's own hash —
   this table sits on the observer hot path. *)

module Bitset = Util.Bitset
module Tbl = Hashtbl.Make (Bitset)

type t = { observed : float Tbl.t }

let create () = { observed = Tbl.create 64 }

let record t s ~rows = Tbl.replace t.observed s (float_of_int rows)

let observed t s = Tbl.find_opt t.observed s

let cardinal t = Tbl.length t.observed

(* Order-independent content digest: summing per-entry hashes makes the
   digest independent of the Hashtbl's iteration order, so an overlay's
   name — which downstream caches may key on — depends only on what was
   observed, never on insertion history. *)
let digest table =
  Tbl.fold
    (fun s c acc ->
      let h = (Bitset.hash s * 1000003) lxor Hashtbl.hash c in
      (acc + h) land max_int)
    table 0

let overlay ~fallback t =
  (* Snapshot: an overlay answers from the store's state at creation
     time. A live view would leak the current execution's own
     observations back into the estimates it is being judged against,
     and every q-error check would trivially pass. *)
  let snap = Tbl.copy t.observed in
  let name =
    Printf.sprintf "feedback(%s)#%d.%x" fallback.Cardest.Estimator.name
      (Tbl.length snap) (digest snap)
  in
  let subset s =
    match Tbl.find_opt snap s with
    | Some c -> c
    | None -> fallback.Cardest.Estimator.subset s
  in
  let base r =
    match Tbl.find_opt snap (Bitset.singleton r) with
    | Some c -> c
    | None -> fallback.Cardest.Estimator.base r
  in
  { Cardest.Estimator.name; base; subset }
