type cmp = Eq | Ne | Lt | Le | Gt | Ge

type atom =
  | Cmp of { col : int; op : cmp; code : int }
  | In of { col : int; codes : int list }
  | Str_cmp of { col : int; op : cmp; value : string }
  | Like of { col : int; pattern : string; negated : bool }
  | Is_null of { col : int; negated : bool }
  | Between of { col : int; lo : int; hi : int }
  | Or of atom list
  | Const_false

type t = atom list

let cmp_to_string = function
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let rec atom_column = function
  | Cmp { col; _ } | In { col; _ } | Like { col; _ } | Is_null { col; _ }
  | Between { col; _ } | Str_cmp { col; _ } ->
      Some col
  | Const_false -> None
  | Or atoms -> (
      match List.filter_map atom_column atoms with
      | [] -> None
      | c :: rest -> if List.for_all (Int.equal c) rest then Some c else None)

let eval_cmp op lhs rhs =
  match op with
  | Eq -> lhs = rhs
  | Ne -> lhs <> rhs
  | Lt -> lhs < rhs
  | Le -> lhs <= rhs
  | Gt -> lhs > rhs
  | Ge -> lhs >= rhs

let rec compile_atom table atom =
  let read col = Storage.Column.reader (Storage.Table.column table col) in
  let null = Storage.Value.null_code in
  match atom with
  | Const_false -> fun _ -> false
  | Cmp { col; op; code } ->
      let d = read col in
      fun row ->
        let v = d row in
        v <> null && eval_cmp op v code
  | In { col; codes } ->
      let d = read col in
      let set = Hashtbl.create (List.length codes) in
      List.iter (fun c -> Hashtbl.replace set c ()) codes;
      fun row ->
        let v = d row in
        v <> null && Hashtbl.mem set v
  | Between { col; lo; hi } ->
      let d = read col in
      fun row ->
        let v = d row in
        v <> null && v >= lo && v <= hi
  | Is_null { col; negated } ->
      let d = read col in
      fun row -> if negated then d row <> null else d row = null
  | Str_cmp { col; op; value } -> (
      let column = Storage.Table.column table col in
      let d = Storage.Column.reader column in
      match Storage.Column.dict column with
      | None -> invalid_arg "Predicate.compile: string comparison on an integer column"
      | Some dict ->
          let bitmap =
            Storage.Dict.matching_codes dict (fun s ->
                eval_cmp op (String.compare s value) 0)
          in
          fun row ->
            let v = d row in
            v <> null && bitmap.(v))
  | Like { col; pattern; negated } -> (
      let column = Storage.Table.column table col in
      let d = Storage.Column.reader column in
      match Storage.Column.dict column with
      | None -> invalid_arg "Predicate.compile: LIKE on an integer column"
      | Some dict ->
          let bitmap =
            Storage.Dict.matching_codes dict (fun s -> Like_match.matches ~pattern s)
          in
          fun row ->
            let v = d row in
            v <> null && bitmap.(v) <> negated)
  | Or atoms ->
      let fns = Array.of_list (List.map (compile_atom table) atoms) in
      fun row ->
        (* A loop, not [List.exists]: no closure per row. *)
        let k = ref 0 in
        while !k < Array.length fns && not (fns.(!k) row) do
          incr k
        done;
        !k < Array.length fns

let compile table preds =
  match List.map (compile_atom table) preds with
  | [] -> fun _ -> true
  | [ f ] -> f
  | fns ->
      let fns = Array.of_list fns in
      fun row ->
        let k = ref 0 in
        while !k < Array.length fns && fns.(!k) row do
          incr k
        done;
        !k = Array.length fns

(* ------------------------------------------------------------------ *)
(* Selection vectors                                                   *)

(* A refiner compacts a selection vector in place: rows [sel.(0..n-1)]
   come in, the surviving prefix goes out. Each atom compiles to one
   refiner with the comparison specialized per operator, so the hot
   loop tests a plain int against a constant — no closure dispatch and
   no allocation per row.

   Columns are decoded late: the selector decodes each referenced
   column for the current chunk into a per-source scratch buffer before
   running the refiners, so the inner loops always index a plain
   [int array]. *)
type source = {
  src_col : Storage.Column.t;
  mutable arr : int array; (* row [r]'s code is [arr.(r - off)] *)
  mutable off : int;
}

(* One compaction loop per operator; [keep] must be a simple value
   test so the compiler can inline it at each instantiation site. The
   source's view is re-read per chunk: the selector re-points
   [arr]/[off] before the refiners run. *)
let compact src keep sel n =
  let a = src.arr and off = src.off in
  let m = ref 0 in
  for k = 0 to n - 1 do
    let row = Array.unsafe_get sel k in
    let v = Array.unsafe_get a (row - off) in
    if keep v then begin
      Array.unsafe_set sel !m row;
      incr m
    end
  done;
  !m

(* A kernel is an atom's refiner with the expensive precomputation
   (LIKE / string-compare dictionary bitmaps, IN sets) hoisted out of
   instantiation. Everything a kernel captures is read-only after
   construction, so one kernel serves any number of selector instances
   — including instances running on different domains (morsel scans
   instantiate one selector per worker). *)
let kernel_of_atom table atom =
  let null = Storage.Value.null_code in
  match atom with
  | Cmp { col; op; code } -> (
      fun source_for ->
        let d = source_for col in
        match op with
        | Eq -> compact d (fun v -> v <> null && v = code)
        | Ne -> compact d (fun v -> v <> null && v <> code)
        | Lt -> compact d (fun v -> v <> null && v < code)
        | Le -> compact d (fun v -> v <> null && v <= code)
        | Gt -> compact d (fun v -> v <> null && v > code)
        | Ge -> compact d (fun v -> v <> null && v >= code))
  | Between { col; lo; hi } ->
      fun source_for ->
        compact (source_for col) (fun v -> v <> null && v >= lo && v <= hi)
  | In { col; codes } ->
      let set = Hashtbl.create (List.length codes) in
      List.iter (fun c -> Hashtbl.replace set c ()) codes;
      fun source_for ->
        compact (source_for col) (fun v -> v <> null && Hashtbl.mem set v)
  | Is_null { col; negated } ->
      fun source_for ->
        let d = source_for col in
        if negated then compact d (fun v -> v <> null)
        else compact d (fun v -> v = null)
  | Str_cmp { col; op; value } -> (
      let column = Storage.Table.column table col in
      match Storage.Column.dict column with
      | None ->
          invalid_arg "Predicate.compile: string comparison on an integer column"
      | Some dict ->
          let bitmap =
            Storage.Dict.matching_codes dict (fun s ->
                eval_cmp op (String.compare s value) 0)
          in
          fun source_for ->
            compact (source_for col) (fun v -> v <> null && bitmap.(v)))
  | Like { col; pattern; negated } -> (
      let column = Storage.Table.column table col in
      match Storage.Column.dict column with
      | None -> invalid_arg "Predicate.compile: LIKE on an integer column"
      | Some dict ->
          let bitmap =
            Storage.Dict.matching_codes dict (fun s ->
                Like_match.matches ~pattern s)
          in
          fun source_for ->
            compact (source_for col) (fun v -> v <> null && bitmap.(v) <> negated))
  | (Or _ | Const_false) as atom ->
      (* Row-predicate fallback. The compiled closure has no mutable
         state, so it is safe to share across domains. *)
      let f = compile_atom table atom in
      fun _source_for sel n ->
        let m = ref 0 in
        for k = 0 to n - 1 do
          let row = Array.unsafe_get sel k in
          if f row then begin
            Array.unsafe_set sel !m row;
            incr m
          end
        done;
        !m

let selector_factory table preds =
  let kernels = List.map (kernel_of_atom table) preds in
  fun () ->
    (* Per-instance mutable state: the decode scratch the refiners read
       through. This is why a selector instance belongs to exactly one
       domain while the factory itself is freely shared. *)
    let sources = ref [] in
    let source_for col =
      match List.assoc_opt col !sources with
      | Some s -> s
      | None ->
          let s =
            { src_col = Storage.Table.column table col; arr = [||]; off = 0 }
          in
          sources := (col, s) :: !sources;
          s
    in
    let refiners = List.map (fun kernel -> kernel source_for) kernels in
    let sources = List.map snd !sources in
    fun sel lo hi ->
      let n = hi - lo in
      List.iter
        (fun s ->
          if Array.length s.arr < n then s.arr <- Array.make (max n 4096) 0;
          Storage.Column.decode_into s.src_col ~row_start:lo ~len:n s.arr;
          s.off <- lo)
        sources;
      for k = 0 to n - 1 do
        Array.unsafe_set sel k (lo + k)
      done;
      List.fold_left (fun n refine -> refine sel n) n refiners

let compile_selector table preds = selector_factory table preds ()

let column_name table col =
  Storage.Column.name (Storage.Table.column table col)

let const_str table col code =
  let column = Storage.Table.column table col in
  match Storage.Column.dict column with
  | None -> string_of_int code
  | Some dict -> Printf.sprintf "'%s'" (Storage.Dict.get dict code)

let rec pp_atom table fmt = function
  | Const_false -> Format.pp_print_string fmt "FALSE"
  | Cmp { col; op; code } ->
      Format.fprintf fmt "%s %s %s" (column_name table col) (cmp_to_string op)
        (const_str table col code)
  | In { col; codes } ->
      Format.fprintf fmt "%s IN (%s)" (column_name table col)
        (String.concat ", " (List.map (const_str table col) codes))
  | Str_cmp { col; op; value } ->
      Format.fprintf fmt "%s %s '%s'" (column_name table col) (cmp_to_string op)
        value
  | Like { col; pattern; negated } ->
      Format.fprintf fmt "%s %sLIKE '%s'" (column_name table col)
        (if negated then "NOT " else "")
        pattern
  | Is_null { col; negated } ->
      Format.fprintf fmt "%s IS %sNULL" (column_name table col)
        (if negated then "NOT " else "")
  | Between { col; lo; hi } ->
      Format.fprintf fmt "%s BETWEEN %d AND %d" (column_name table col) lo hi
  | Or atoms ->
      Format.fprintf fmt "(%s)"
        (String.concat " OR "
           (List.map (Format.asprintf "%a" (pp_atom table)) atoms))

let pp table fmt preds =
  match preds with
  | [] -> Format.pp_print_string fmt "TRUE"
  | _ ->
      Format.pp_print_string fmt
        (String.concat " AND "
           (List.map (Format.asprintf "%a" (pp_atom table)) preds))
