(* Cross-query join-build recycling: a budgeted, sharded cache of sealed
   {!Join_table}s together with the base-table selection they were built
   over. A JOB workload re-executes the same queries (and the same
   predicated base-table scans) thousands of times; every hash join whose
   build side is a base-relation scan rebuilds a table that is a pure
   function of

     (table contents, scan predicate, key columns, bucket sizing)

   so the serving loop can skip the scan and the build entirely and go
   probe-only. Keys capture everything the build depends on:

   - table name + row count (guards against a different database
     instance sharing one cache by mistake),
   - a digest of the scan's predicate AST,
   - the ordered join-key columns (composite hashes fold columns in edge
     order, so order is semantic),
   - the planned bucket count and resizability — buckets are sized from
     the *optimizer's estimate* (the paper's pathology), so the same
     build under a different estimate is a different physical table.

   Entries are immutable once published (the table is sealed, the row
   array is never written again), so concurrent probes from any number
   of serving domains share them without locks. Publication goes through
   {!Util.Shard_map}, whose shard mutex gives the release/acquire fence.

   Eviction is LRU under a byte budget: every hit stamps the entry with
   a global clock tick, and an install that pushes the cache over budget
   evicts stale entries (smallest tick first) until it fits. The clock
   is the one piece of shared mutable serving state here — an
   Atomic.fetch_and_add counter, annotated under domlint R6 and
   confined to this file by domlint R7. *)

type key = {
  k_table : string;
  k_rows : int;
  k_pred : string;  (* digest of the predicate AST *)
  k_cols : int list;  (* join-key columns, in edge order *)
  k_buckets : int;  (* Join_table.planned_buckets for this build *)
  k_resizable : bool;
}

type entry = {
  e_rows : Rowbuf.t;  (* surviving row ids of the build-side scan *)
  e_nrows : int;
  e_table : Join_table.t;  (* sealed; probe-only from here on *)
  e_scan_work : int;  (* replayed work: full-table scan charge *)
  e_build_work : int;  (* replayed work: 1 per build row *)
  e_seal_work : int;  (* replayed work: the seal's resize bill *)
  e_bytes : int;
  e_tick : int Atomic.t;  (* LRU stamp; later = more recently used *)
}

type t = {
  budget_bytes : int;
  map : (key, entry) Util.Shard_map.t;
  clock : int Atomic.t;
  c_hits : int Atomic.t;
  c_misses : int Atomic.t;
  c_installs : int Atomic.t;
  c_evictions : int Atomic.t;
  reg_lock : Mutex.t;
  (* All live entries, for the eviction scan; guarded by [reg_lock]
     along with [reg_bytes]. Entry counts stay small (distinct build
     sides of a 113-query workload), so a linear victim scan per
     eviction is cheaper than maintaining an ordered index. *)
  mutable registry : (key * entry) list;
  mutable reg_bytes : int;
}

(* Process-wide totals mirrored into the Obs.Metrics registry. The
   per-instance [c_*] cells stay authoritative for per-run reports
   (BENCH_serve.json deltas are per cache); the registry rows aggregate
   across every cache the process ever created. *)
let m_hits = Obs.Metrics.counter "exec.join_cache.hits"
let m_misses = Obs.Metrics.counter "exec.join_cache.misses"
let m_installs = Obs.Metrics.counter "exec.join_cache.installs"
let m_evictions = Obs.Metrics.counter "exec.join_cache.evictions"

let default_budget_bytes = 64 * 1024 * 1024

let create ?(shards = 16) ?(budget_bytes = default_budget_bytes) () =
  if budget_bytes < 1 then
    invalid_arg "Join_cache.create: budget_bytes must be >= 1";
  {
    budget_bytes;
    (* The shard capacity is a hard backstop only: the byte budget is
       the real bound, enforced below through Shard_map.remove. *)
    map = Util.Shard_map.create ~shards ~capacity:4096 ();
    clock = Atomic.make 0;
    c_hits = Atomic.make 0;
    c_misses = Atomic.make 0;
    c_installs = Atomic.make 0;
    c_evictions = Atomic.make 0;
    reg_lock = Mutex.create ();
    registry = [];
    reg_bytes = 0;
  }

(* ------------------------------------------------------------------ *)
(* Key construction                                                    *)

let pred_digest (preds : Query.Predicate.t) =
  (* Predicate atoms are pure data (ints, strings, lists), so their
     marshaled form is a canonical serialization of the AST. *)
  Digest.to_hex (Digest.string (Marshal.to_string preds []))

let make_key ~table ~table_rows ~pred ~cols ~buckets ~resizable =
  {
    k_table = table;
    k_rows = table_rows;
    k_pred = pred;
    k_cols = cols;
    k_buckets = buckets;
    k_resizable = resizable;
  }

(* ------------------------------------------------------------------ *)
(* Lookup / install / eviction                                         *)

let tick t =
  (* domlint: safe R6 — LRU clock: unique recency stamps, never used to
     distribute work between domains *)
  Atomic.fetch_and_add t.clock 1

let find t key =
  match Util.Shard_map.find_opt t.map key with
  | Some e ->
      Atomic.incr t.c_hits;
      Obs.Metrics.Counter.incr m_hits;
      Atomic.set e.e_tick (tick t);
      Some e
  | None ->
      Atomic.incr t.c_misses;
      Obs.Metrics.Counter.incr m_misses;
      None

(* Under [reg_lock]: drop smallest-tick entries until within budget.
   Readers already holding an evicted entry keep using it (immutable;
   the GC keeps it alive) — eviction only unpublishes the key. *)
let evict_to_budget t =
  while t.reg_bytes > t.budget_bytes && t.registry <> [] do
    let victim =
      List.fold_left
        (fun acc (k, e) ->
          match acc with
          | Some (_, best) when Atomic.get best.e_tick <= Atomic.get e.e_tick ->
              acc
          | _ -> Some (k, e))
        None t.registry
    in
    match victim with
    | None -> ()
    | Some (vk, ve) ->
        ignore (Util.Shard_map.remove t.map vk);
        t.registry <- List.filter (fun (k, _) -> k != vk) t.registry;
        t.reg_bytes <- t.reg_bytes - ve.e_bytes;
        Atomic.incr t.c_evictions;
        Obs.Metrics.Counter.incr m_evictions
  done

let entry_overhead_bytes = 160 (* record + key, order of magnitude *)

let install t key ~rows ~nrows ~table ~scan_work ~build_work ~seal_work =
  let bytes =
    Join_table.byte_size table + Rowbuf.byte_size rows + entry_overhead_bytes
  in
  let entry =
    {
      e_rows = rows;
      e_nrows = nrows;
      e_table = table;
      e_scan_work = scan_work;
      e_build_work = build_work;
      e_seal_work = seal_work;
      e_bytes = bytes;
      e_tick = Atomic.make (tick t);
    }
  in
  let _, created = Util.Shard_map.find_or_add t.map key (fun () -> entry) in
  if created then begin
    Atomic.incr t.c_installs;
    Obs.Metrics.Counter.incr m_installs;
    Mutex.lock t.reg_lock;
    t.registry <- (key, entry) :: t.registry;
    t.reg_bytes <- t.reg_bytes + bytes;
    evict_to_budget t;
    Mutex.unlock t.reg_lock
  end

(* ------------------------------------------------------------------ *)
(* Telemetry                                                           *)

type stats = {
  hits : int;
  misses : int;
  installs : int;
  evictions : int;
  entries : int;
  bytes : int;
  budget_bytes : int;
}

let stats t =
  Mutex.lock t.reg_lock;
  let entries = List.length t.registry in
  let bytes = t.reg_bytes in
  Mutex.unlock t.reg_lock;
  {
    hits = Atomic.get t.c_hits;
    misses = Atomic.get t.c_misses;
    installs = Atomic.get t.c_installs;
    evictions = Atomic.get t.c_evictions;
    entries;
    bytes;
    budget_bytes = t.budget_bytes;
  }

let hit_rate s =
  let total = s.hits + s.misses in
  if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total
