type t = {
  mutable buckets : int array; (* head index into entries, -1 = empty *)
  mutable mask : int;
  mutable next : int array;
  mutable hashes : int array;
  mutable payloads : int array;
  mutable count : int;
  resizable : bool;
  initial_buckets : int; (* bucket count at creation, for seal's replay *)
}

let mix x =
  (* SplitMix64 finalizer, truncated to OCaml's int. *)
  let open Int64 in
  let z = of_int x in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  to_int (logxor z (shift_right_logical z 31)) land Stdlib.max_int

let combine a b = mix ((a * 31) lxor b)

let next_pow2 x =
  let rec go p = if p >= x then p else go (p * 2) in
  go 16

(* The initial bucket count [create] derives from the optimizer's
   estimate — exposed so the recycling cache can key sealed tables on
   exactly the sizing the executor would have used. *)
let planned_buckets ?(bucket_floor = 1024) ~estimated_rows () =
  let est =
    int_of_float
      (Float.max (float_of_int (max 1 bucket_floor)) (Float.min 1e9 estimated_rows))
  in
  next_pow2 est

let create ?(bucket_floor = 1024) ~estimated_rows ?actual_rows ~resizable () =
  (* PostgreSQL floors its hash tables at ~1k buckets regardless of the
     estimate; without the floor every underestimate is a catastrophe
     rather than a slowdown. The floor is a parameter so the ablation
     bench can quantify exactly that.

     Buckets are always sized from the optimizer's *estimate* — that is
     the paper's pathology and must stay. [actual_rows], when the build
     side's true cardinality is already known (the executor has the
     materialized batch in hand), pre-sizes only the entry arrays so a
     big build skips the ~15 doubling copies. *)
  let n_buckets = planned_buckets ~bucket_floor ~estimated_rows () in
  let entry_cap = max 64 (match actual_rows with Some r -> r | None -> 64) in
  {
    buckets = Array.make n_buckets (-1);
    mask = n_buckets - 1;
    next = Array.make entry_cap (-1);
    hashes = Array.make entry_cap 0;
    payloads = Array.make entry_cap 0;
    count = 0;
    resizable;
    initial_buckets = n_buckets;
  }

let bucket_count t = Array.length t.buckets

let entry_count t = t.count

(* Physical footprint of the table's arrays (words, at 8 bytes each),
   for the recycling cache's byte budget. Counts capacities, not
   [count]: retained garbage headroom is still resident memory. *)
let byte_size t =
  8
  * (Array.length t.buckets + Array.length t.next + Array.length t.hashes
    + Array.length t.payloads)

let grow_entries t =
  let capacity = Array.length t.next in
  if t.count = capacity then begin
    let resize a fill =
      let bigger = Array.make (2 * capacity) fill in
      Array.blit a 0 bigger 0 capacity;
      bigger
    in
    t.next <- resize t.next (-1);
    t.hashes <- resize t.hashes 0;
    t.payloads <- resize t.payloads 0
  end

(* ------------------------------------------------------------------ *)
(* Two-phase build: [append] entries without bucket linking, then one
   [seal] links every chain and settles the resize bill. This decouples
   entry writing (whose key hashes the morsel workers compute) from
   bucket state, and it makes chain order canonical — seal links
   entries from the highest payload down, so probes traverse each chain
   in ascending payload order no matter how the build was scheduled.

   The resize bill models a table that doubles its buckets whenever an
   insert finds [count >= buckets], rehashing all [count] entries, so
   at count = B0, 2*B0, 4*B0, ...: seal charges that schedule against
   the final count. The caller charges 1 per appended entry itself. *)

let append t ~hash ~payload =
  grow_entries t;
  let i = t.count in
  t.count <- i + 1;
  t.hashes.(i) <- hash;
  t.payloads.(i) <- payload

(* Final load-factor telemetry across sealed tables, surfaced by
   [--gc-stats] and the Obs.Metrics registry (which owns the cells). *)
let lf_tables = Obs.Metrics.counter "exec.join_table.tables"
let lf_entries = Obs.Metrics.counter "exec.join_table.entries"
let lf_buckets = Obs.Metrics.counter "exec.join_table.buckets"
let lf_max_permille = Obs.Metrics.gauge "exec.join_table.max_load_permille"

type load_stats = {
  ls_tables : int;
  ls_entries : int;
  ls_buckets : int;
  ls_mean_load : float;
  ls_max_load : float;
}

let load_stats () =
  let tables = Obs.Metrics.Counter.value lf_tables in
  let entries = Obs.Metrics.Counter.value lf_entries in
  let buckets = Obs.Metrics.Counter.value lf_buckets in
  {
    ls_tables = tables;
    ls_entries = entries;
    ls_buckets = buckets;
    ls_mean_load =
      (if buckets = 0 then 0.0 else float_of_int entries /. float_of_int buckets);
    ls_max_load = Obs.Metrics.Gauge.value lf_max_permille /. 1000.0;
  }

let reset_load_stats () =
  Obs.Metrics.Counter.reset lf_tables;
  Obs.Metrics.Counter.reset lf_entries;
  Obs.Metrics.Counter.reset lf_buckets;
  Obs.Metrics.Gauge.reset lf_max_permille

let seal t =
  let work = ref 0 in
  if t.resizable then begin
    let b = ref t.initial_buckets in
    while t.count > !b do
      work := !work + !b;
      b := 2 * !b
    done;
    (* One allocation straight to the final size instead of a chain of
       doublings-plus-relinks. *)
    if !b <> Array.length t.buckets then begin
      t.buckets <- Array.make !b (-1);
      t.mask <- !b - 1
    end
  end;
  for i = t.count - 1 downto 0 do
    let b = t.hashes.(i) land t.mask in
    t.next.(i) <- t.buckets.(b);
    t.buckets.(b) <- i
  done;
  Obs.Metrics.Counter.incr lf_tables;
  Obs.Metrics.Counter.add lf_entries t.count;
  Obs.Metrics.Counter.add lf_buckets (Array.length t.buckets);
  Obs.Metrics.Gauge.set_max lf_max_permille
    (float_of_int (1000 * t.count / Array.length t.buckets));
  !work

(* Probe cursor: callers walk a chain inline, so a probe allocates
   nothing per row. *)
let head t ~hash = t.buckets.(hash land t.mask)
let next t e = t.next.(e)
let entry_hash t e = t.hashes.(e)
let payload t e = t.payloads.(e)

(* Chain entries are hash comparisons on consecutive memory — charge a
   quarter of a tuple's work each, matching the relative CPU weights of
   the cost models. *)
let probe_work ~chain = 1 + (chain / 4)
