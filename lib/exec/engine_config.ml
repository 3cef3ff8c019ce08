type t = {
  name : string;
  allow_nl_join : bool;
  resize_hash_tables : bool;
  work_limit : int;
  row_limit : int;
  hash_bucket_floor : int;
}

let work_units_per_ms = 1000.0

let default_work_limit = 100_000_000 (* = 100 simulated seconds *)

let default_row_limit = 12_000_000

let default_9_4 =
  {
    name = "default";
    allow_nl_join = true;
    resize_hash_tables = false;
    work_limit = default_work_limit;
    row_limit = default_row_limit;
    hash_bucket_floor = 1024;
  }

let no_nl = { default_9_4 with name = "no nested-loop join"; allow_nl_join = false }

let robust =
  { no_nl with name = "no nested-loop join + rehashing"; resize_hash_tables = true }
