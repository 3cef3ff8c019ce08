type t =
  | Identity of { base : int; rows : int }
      (** Row [r] holds key [base + r], for every row: a key's slot is
          [key - base], and its one row is the slot itself. *)
  | Csr of { keys : int array; offsets : int array; rows : int array }
      (** [keys] sorted and distinct; the rows of [keys.(s)] are
          [rows.(offsets.(s))] to [rows.(offsets.(s + 1) - 1)], ascending. *)

(* Every row's key is one more than the previous row's, with no NULL and
   no overflow. *)
let is_identity column =
  let n = Column.length column and read = Column.reader column in
  let rec from row prev =
    row = n || (prev < max_int && read row = prev + 1 && from (row + 1) (prev + 1))
  in
  n = 0 || (read 0 <> Value.null_code && from 1 (read 0))

let csr column =
  let codes = Column.to_codes column in
  let rows = Array.make (Array.length codes - Column.null_count column) 0 in
  let m = ref 0 in
  Array.iteri
    (fun row code ->
      if code <> Value.null_code then begin
        rows.(!m) <- row;
        incr m
      end)
    codes;
  (* Stable, from ascending rows: each key's rows stay ascending. *)
  Array.stable_sort (fun a b -> Int.compare codes.(a) codes.(b)) rows;
  let distinct = Column.distinct_count column in
  let keys = Array.make distinct 0
  and offsets = Array.make (distinct + 1) (Array.length rows) in
  let s = ref 0 in
  Array.iteri
    (fun p row ->
      if p = 0 || codes.(row) <> codes.(rows.(p - 1)) then begin
        keys.(!s) <- codes.(row);
        offsets.(!s) <- p;
        incr s
      end)
    rows;
  Csr { keys; offsets; rows }

let build table ~col =
  let column = Table.column table col in
  if is_identity column then
    let rows = Column.length column in
    Identity { base = (if rows = 0 then 0 else Column.get column 0); rows }
  else csr column

let slot t key =
  match t with
  | Identity { base; rows } ->
      (* [key - base] wraps only for keys outside [base, base + rows). *)
      let s = key - base in
      if s >= 0 && s < rows then s else -1
  | Csr { keys; _ } ->
      let lo = ref 0 and hi = ref (Array.length keys) in
      while !lo < !hi do
        let mid = (!lo + !hi) lsr 1 in
        if keys.(mid) < key then lo := mid + 1 else hi := mid
      done;
      if !lo < Array.length keys && keys.(!lo) = key then !lo else -1

let first t s = match t with Identity _ -> s | Csr { offsets; _ } -> offsets.(s)

let stop t s = match t with Identity _ -> s + 1 | Csr { offsets; _ } -> offsets.(s + 1)

let row t p = match t with Identity _ -> p | Csr { rows; _ } -> rows.(p)

let count t key =
  let s = slot t key in
  if s < 0 then 0 else stop t s - first t s
