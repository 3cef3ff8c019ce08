type table_stats = {
  table : Storage.Table.t;
  row_count : int;
  columns : Column_stats.t Util.Once.t array;
  sample : Sample.t;
}

type t = {
  db : Storage.Database.t;
  prng : Util.Prng.t;
  sample_size : int;
  buckets : int;
  mcv_entries : int;
  cache : (string, table_stats) Hashtbl.t;
}

let create ?(seed = 1337) ?(sample_size = 30_000) ?(buckets = 100)
    ?(mcv_entries = 100) db =
  {
    db;
    prng = Util.Prng.create seed;
    sample_size;
    buckets;
    mcv_entries;
    cache = Hashtbl.create 32;
  }

let database t = t.db

let analyzed_tables t = Hashtbl.length t.cache

let table t name =
  match Hashtbl.find_opt t.cache name with
  | Some stats -> stats
  | None ->
      let tbl = Storage.Database.find_table t.db name in
      let sample = Sample.take t.prng tbl ~size:t.sample_size in
      (* Only the sample draws from the PRNG; a column's statistics are a
         function of it, built when an estimator first reads them. *)
      let sample_rows = Sample.rows sample in
      let columns =
        Array.init (Storage.Table.column_count tbl) (fun col ->
            Util.Once.make (fun () ->
                Column_stats.build tbl ~col ~sample_rows
                  ~buckets:t.buckets ~mcv_entries:t.mcv_entries ()))
      in
      let stats = { table = tbl; row_count = Storage.Table.row_count tbl; columns; sample } in
      Hashtbl.add t.cache name stats;
      stats

let column t ~table:name ~col = Util.Once.force (table t name).columns.(col)

let sample t ~table:name = (table t name).sample
