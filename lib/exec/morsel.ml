(* The executor's morsel scheduler: the one place intra-query work
   distribution state lives. A phase (a pipeline from a scan or stored
   batch through probe stages to a sink, or a hash-build key pass)
   slices its input into fixed-size morsels and hands them to its
   claimants (pool workers, or the calling domain alone) through an
   atomic cursor; per-phase work and per-stage row totals accumulate in
   shared counters so the work/row budgets trip on the same global
   condition however many claimants ran.

   domlint R6 confines [Atomic.fetch_and_add] to this module and
   [util/domain_pool.ml]: ad-hoc cursors elsewhere would bypass both
   the determinism argument (assembly by morsel index) and the
   accounting contract (monotone shared totals checked against the
   budget). *)

type cursor = { morsels : int; next : int Atomic.t }

let cursor morsels = { morsels; next = Atomic.make 0 }

(* Claims return -1 once exhausted. The pre-check keeps repeated claims
   after exhaustion from advancing the counter (the same wrap-around
   hazard Domain_pool documents), and makes post-exhaustion claims
   side-effect free — the cursor law the QCheck tests pin down. *)
let claim c =
  if Atomic.get c.next >= c.morsels then -1
  else
    let i = Atomic.fetch_and_add c.next 1 in
    if i >= c.morsels then -1 else i

(* Shared accumulator for one phase. [add] returns the total
   including this contribution, so a worker can compare the committed
   global figure against a budget without a second read. *)
type acc = int Atomic.t

let acc () = Atomic.make 0
let add (a : acc) n = Atomic.fetch_and_add a n + n
let total (a : acc) = Atomic.get a
let reset (a : acc) = Atomic.set a 0

(* ------------------------------------------------------------------ *)
(* Scheduler telemetry. Process-global and monotone between resets;
   counters are observability only — never part of query results, which
   stay byte-identical at any worker count. The cells live in the
   Obs.Metrics registry (the process-wide telemetry home, domlint R8);
   this module holds the handles and the derived [stats] view. *)

let phases = Obs.Metrics.counter "exec.morsel.phases"
let dispatched = Obs.Metrics.counter "exec.morsel.dispatched"
let stolen = Obs.Metrics.counter "exec.morsel.stolen"
let skew_permille = Obs.Metrics.counter "exec.morsel.skew_permille"

(* [note_phase claims] records one finished pool phase from the
   per-slot claim counts. "Stolen" counts morsels that ran off the
   caller's domain (slot 0 is the caller); "skew" is the busiest slot's
   share relative to a perfect split, 1000 = perfectly balanced. *)
let note_phase claims =
  let nslots = Array.length claims in
  let total = Array.fold_left ( + ) 0 claims in
  if total > 0 && nslots > 0 then begin
    Obs.Metrics.Counter.incr phases;
    Obs.Metrics.Counter.add dispatched total;
    Obs.Metrics.Counter.add stolen (total - claims.(0));
    let busiest = Array.fold_left max 0 claims in
    Obs.Metrics.Counter.add skew_permille (1000 * busiest * nslots / total)
  end

type stats = {
  st_phases : int;
  st_dispatched : int;
  st_stolen : int;
  st_skew : float;  (* mean busiest-slot share, 1.0 = balanced *)
}

let stats () =
  let p = Obs.Metrics.Counter.value phases in
  {
    st_phases = p;
    st_dispatched = Obs.Metrics.Counter.value dispatched;
    st_stolen = Obs.Metrics.Counter.value stolen;
    st_skew =
      (if p = 0 then 1.0
       else
         float_of_int (Obs.Metrics.Counter.value skew_permille)
         /. (1000.0 *. float_of_int p));
  }

let reset_stats () =
  Obs.Metrics.Counter.reset phases;
  Obs.Metrics.Counter.reset dispatched;
  Obs.Metrics.Counter.reset stolen;
  Obs.Metrics.Counter.reset skew_permille
