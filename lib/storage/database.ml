type index_config = No_indexes | Pk_only | Pk_fk

let index_config_to_string = function
  | No_indexes -> "no indexes"
  | Pk_only -> "PK indexes"
  | Pk_fk -> "PK + FK indexes"

type t = {
  tables : (string, Table.t) Hashtbl.t;
  (* Read-mostly snapshot: lookups read the current table without any
     lock (the executor and the cost models probe indexes from several
     domains, and after warm-up every probe is a hit). A miss installs a
     {!Util.Once} cell under [index_mutex] by publishing a fresh copy of
     the table; the build itself runs outside the mutex, guarded only by
     the cell, so two domains demanding different indexes never
     serialize on each other's builds. *)
  index_cache : (string * int, Index.t Util.Once.t) Hashtbl.t Atomic.t;
  index_mutex : Mutex.t;
  mutable config : index_config;
}

let create () =
  {
    tables = Hashtbl.create 32;
    index_cache = Atomic.make (Hashtbl.create 64);
    index_mutex = Mutex.create ();
    config = Pk_only;
  }

let add_table t table =
  let table_name = Table.name table in
  if Hashtbl.mem t.tables table_name then
    invalid_arg (Printf.sprintf "Database.add_table: duplicate table %s" table_name);
  Hashtbl.add t.tables table_name table

let find_table t table_name =
  match Hashtbl.find_opt t.tables table_name with
  | Some table -> table
  | None -> invalid_arg (Printf.sprintf "Database.find_table: unknown table %s" table_name)

let table_names t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.tables [] |> List.sort compare

let set_index_config t config = t.config <- config

let index_config t = t.config

let cached_index t ~table ~col =
  let key = (table, col) in
  let cell =
    match Hashtbl.find_opt (Atomic.get t.index_cache) key with
    | Some cell -> cell
    | None ->
        Mutex.lock t.index_mutex;
        let current = Atomic.get t.index_cache in
        let cell =
          (* Re-check: another domain may have published the cell while
             we waited for the mutex. *)
          match Hashtbl.find_opt current key with
          | Some cell -> cell
          | None ->
              let cell =
                Util.Once.make (fun () -> Index.build (find_table t table) ~col)
              in
              let next = Hashtbl.copy current in
              Hashtbl.add next key cell;
              Atomic.set t.index_cache next;
              cell
        in
        Mutex.unlock t.index_mutex;
        cell
  in
  Util.Once.force cell

let configured_columns t table =
  let tbl = find_table t table in
  match t.config with
  | No_indexes -> []
  | Pk_only -> Option.to_list (Table.pk tbl)
  | Pk_fk -> Option.to_list (Table.pk tbl) @ Table.fks tbl

let index t ~table ~col =
  if List.mem col (configured_columns t table) then Some (cached_index t ~table ~col)
  else None

let total_rows t =
  Hashtbl.fold (fun _ table acc -> acc + Table.row_count table) t.tables 0
