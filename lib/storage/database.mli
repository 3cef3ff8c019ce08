(** The catalog: named tables plus the current physical design.

    A physical design ([index_config]) determines which indexes
    exist. Index construction is cached per (table, column), so switching
    configurations back and forth during the experiments is cheap. *)

type index_config = No_indexes | Pk_only | Pk_fk

val index_config_to_string : index_config -> string

type t

val create : unit -> t

val add_table : t -> Table.t -> unit
(** Raises [Invalid_argument] on duplicate names. *)

val find_table : t -> string -> Table.t
(** Raises [Invalid_argument] when unknown. *)

val table_names : t -> string list
(** Sorted list of registered tables. *)

val set_index_config : t -> index_config -> unit

val index_config : t -> index_config

val index : t -> table:string -> col:int -> Index.t option
(** The index on [table.col] if the current configuration provides one
    (built lazily, cached forever). *)

val total_rows : t -> int
