(* Keyed on int codes: monomorphic hashing and equality, and [find]
   raises instead of allocating an option, so a probe allocates
   nothing. *)
module Tbl = Hashtbl.Make (Int)

type t = {
  table_name : string;
  column : int;
  buckets : int array Tbl.t;
  indexed_rows : int;
}

(* domlint: safe [R1] — empty sentinel shared read-only, never written *)
let empty_rows : int array = [||]

let build table ~col =
  let column = Table.column table col in
  let counts = Tbl.create 1024 in
  Column.iter_codes column (fun code ->
      if code <> Value.null_code then
        match Tbl.find counts code with
        | n -> Tbl.replace counts code (n + 1)
        | exception Not_found -> Tbl.add counts code 1);
  let buckets = Tbl.create (Tbl.length counts) in
  Tbl.iter (fun code n -> Tbl.add buckets code (Array.make n 0)) counts;
  (* From here [counts] holds each key's rows still to place, so a
     bucket's next free slot is its length minus that. Rows arrive in
     order, so every bucket comes out ascending. *)
  let indexed = ref 0 in
  let row = ref 0 in
  Column.iter_codes column (fun code ->
      if code <> Value.null_code then begin
        let rows = Tbl.find buckets code and left = Tbl.find counts code in
        rows.(Array.length rows - left) <- !row;
        Tbl.replace counts code (left - 1);
        incr indexed
      end;
      incr row);
  { table_name = Table.name table; column = col; buckets; indexed_rows = !indexed }

let table_name t = t.table_name
let column t = t.column

let lookup t code =
  match Tbl.find t.buckets code with
  | rows -> rows
  | exception Not_found -> empty_rows

let count t code = Array.length (lookup t code)

let distinct_keys t = Tbl.length t.buckets

let average_fanout t =
  let keys = Tbl.length t.buckets in
  if keys = 0 then 0.0 else float_of_int t.indexed_rows /. float_of_int keys
