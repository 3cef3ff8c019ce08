(** The ANALYZE pipeline: build and cache statistics for a database.

    One [t] corresponds to one run of the statistics-gathering command of
    a system under test (Section 2.4 of the paper: "we ran the statistics
    gathering command of each database system with default settings").
    Estimators with different sampling budgets create their own [t]. *)

type table_stats = {
  table : Storage.Table.t;
  row_count : int;
  columns : Column_stats.t Util.Once.t array;
      (** Indexed like the table's columns. Each is built from [sample]
          on first force, which {!column} does: columns no estimator
          reads are never analyzed. *)
  sample : Sample.t;  (** The row sample the statistics came from. *)
}

type t

val create :
  ?seed:int ->
  ?sample_size:int ->
  ?buckets:int ->
  ?mcv_entries:int ->
  Storage.Database.t ->
  t
(** Lazy: a table's sample is drawn on first access, a column's
    statistics are built on its first {!column}. Defaults: sample 30000
    rows, 100 histogram buckets, 100 MCV entries (PostgreSQL-ish). *)

val database : t -> Storage.Database.t

val analyzed_tables : t -> int
(** Number of distinct tables analyzed so far. Only a table's first
    analysis draws from the instance's PRNG, so once this equals the
    database's table count, no further access changes any sample or
    statistic of the instance. *)

val table : t -> string -> table_stats

val column : t -> table:string -> col:int -> Column_stats.t

val sample : t -> table:string -> Sample.t
