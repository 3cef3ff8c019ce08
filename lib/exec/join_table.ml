type t = {
  mutable buckets : Rowbuf.t; (* head index into entries, -1 = empty *)
  mutable mask : int;
  next : Rowbuf.t; (* written for linked entries only *)
  hashes : int array; (* entry i is build row i; negative = NULL key *)
  count : int; (* non-NULL entries *)
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

let create ?(bucket_floor = 1024) ~estimated_rows ~resizable hashes =
  (* PostgreSQL floors its hash tables at ~1k buckets regardless of the
     estimate; without the floor every underestimate is a catastrophe
     rather than a slowdown. The floor is a parameter so the ablation
     bench can quantify exactly that.

     Buckets are always sized from the optimizer's *estimate* — that is
     the paper's pathology and must stay. The entries are the build
     rows themselves: the table adopts the caller's row-indexed hash
     array instead of copying it. *)
  let n_buckets = planned_buckets ~bucket_floor ~estimated_rows () in
  {
    buckets = Rowbuf.absent n_buckets;
    mask = n_buckets - 1;
    next = Rowbuf.create (Array.length hashes);
    hashes;
    count = Array.fold_left (fun c h -> if h >= 0 then c + 1 else c) 0 hashes;
    resizable;
    initial_buckets = n_buckets;
  }

let bucket_count t = Rowbuf.length t.buckets

let entry_count t = t.count

(* Physical footprint of the table's arrays (4-byte links and buckets,
   8-byte hashes), for the recycling cache's byte budget. Counts every
   build row, not [count]: a NULL-key row's slots are resident too. *)
let byte_size t =
  Rowbuf.byte_size t.buckets + Rowbuf.byte_size t.next + (8 * Array.length t.hashes)

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

(* ------------------------------------------------------------------ *)
(* [seal] links every chain and settles the resize bill in one pass
   over the adopted hashes, after the morsel workers have written them
   all. Chain order is canonical — seal links rows from the highest
   down, so probes traverse each chain in ascending row order no matter
   how the build was scheduled — and NULL-key rows are never linked.

   The resize bill models a table that doubles its buckets whenever an
   insert finds [count >= buckets], rehashing all [count] entries, so
   at count = B0, 2*B0, 4*B0, ...: seal charges that schedule against
   the final non-NULL count. The caller charges 1 per build row itself. *)
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
    if !b <> Rowbuf.length t.buckets then begin
      t.buckets <- Rowbuf.absent !b;
      t.mask <- !b - 1
    end
  end;
  for i = Array.length t.hashes - 1 downto 0 do
    let h = t.hashes.(i) in
    if h >= 0 then begin
      let b = h land t.mask in
      Rowbuf.copy t.buckets b t.next i;
      Rowbuf.set t.buckets b i
    end
  done;
  Obs.Metrics.Counter.incr lf_tables;
  Obs.Metrics.Counter.add lf_entries t.count;
  Obs.Metrics.Counter.add lf_buckets (Rowbuf.length t.buckets);
  Obs.Metrics.Gauge.set_max lf_max_permille
    (float_of_int (1000 * t.count / Rowbuf.length t.buckets));
  !work

(* Probe cursor: callers walk a chain inline, so a probe allocates
   nothing per row. *)
let[@inline] link b i = Int32.to_int (Rowbuf.get32 b (4 * i))
let head t ~hash = link t.buckets (hash land t.mask)
let next t e = link t.next e
let entry_hash t e = t.hashes.(e)

(* Chain entries are hash comparisons on consecutive memory — charge a
   quarter of a tuple's work each, matching the relative CPU weights of
   the cost models. *)
let probe_work ~chain = 1 + (chain / 4)
