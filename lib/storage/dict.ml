(* The lexicographic order of the strings: [sorted.(k)] is the code of
   rank [k], [ranks.(code)] the rank of [code]. *)
type order = { sorted : int array; ranks : int array }

type t = {
  strings : string array;  (** exact size: [strings.(code)] *)
  order : order Util.Once.t;  (** sorted on first demand *)
}

(* Monomorphic string hashing and equality for the construction-local
   intern table. *)
module Tbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

let sort_order strings () =
  let sorted = Array.init (Array.length strings) Fun.id in
  (* Merge sort: fewer string comparisons than the heapsort of
     [Array.sort]. The strings are distinct, so the order is total. *)
  Array.stable_sort (fun a b -> String.compare strings.(a) strings.(b)) sorted;
  let ranks = Array.make (Array.length strings) 0 in
  Array.iteri (fun r c -> ranks.(c) <- r) sorted;
  { sorted; ranks }

let encode values =
  let table = Tbl.create 64 in
  let codes =
    Array.map
      (function
        | None -> Value.null_code
        | Some s -> (
            match Tbl.find table s with
            | code -> code
            | exception Not_found ->
                let code = Tbl.length table in
                Tbl.add table s code;
                code))
      values
  in
  let strings = Array.make (Tbl.length table) "" in
  Tbl.iter (fun s code -> strings.(code) <- s) table;
  ({ strings; order = Util.Once.make (sort_order strings) }, codes)

let get t code =
  if code < 0 || code >= Array.length t.strings then invalid_arg "Dict.get: unknown code";
  t.strings.(code)

let size t = Array.length t.strings

let iter f t = Array.iteri f t.strings

let matching_codes t p = Array.map p t.strings

let order t = Util.Once.force t.order

let ranks t = (order t).ranks

(* The first rank whose string is >= s. *)
let lower_bound t sorted s =
  let lo = ref 0 and hi = ref (Array.length sorted) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if String.compare t.strings.(sorted.(mid)) s < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let count_below t s = lower_bound t (order t).sorted s

let find_opt t s =
  let sorted = (order t).sorted in
  let rank = lower_bound t sorted s in
  if rank < Array.length sorted && String.equal t.strings.(sorted.(rank)) s then
    Some sorted.(rank)
  else None
