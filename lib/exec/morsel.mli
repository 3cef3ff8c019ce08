(** Morsel scheduler: work-stealing cursor, shared phase accumulators,
    and scheduler telemetry for the executor's morsel phases.

    All shared mutable work-distribution state for morsel execution
    lives here (domlint R6 enforces that); the executor builds each
    phase from a {!cursor} handing out morsel indices plus {!acc}
    counters that make the work/row budgets trip on global totals —
    the same condition however many domains claim morsels, which is one
    half of the byte-identical-results argument (the other half is
    assembly of per-morsel output in morsel-index order). *)

(** {1 Cursor} *)

type cursor

val cursor : int -> cursor
(** [cursor n] hands out morsel indices [0 .. n-1], each exactly once,
    across any number of concurrent claimants. *)

val claim : cursor -> int
(** Next unclaimed morsel index, or [-1] when exhausted. Claims after
    exhaustion are side-effect free and keep returning [-1]. *)

(** {1 Phase accumulators} *)

type acc
(** A shared monotone counter for one phase (work units, rows
    emitted). *)

val acc : unit -> acc
val add : acc -> int -> int
(** [add a n] adds [n] and returns the committed total including it —
    claimants compare that against the engine budget and raise on the
    same global condition at any worker count. *)

val total : acc -> int
val reset : acc -> unit

(** {1 Telemetry} *)

type stats = {
  st_phases : int;  (** pool phases run since the last reset *)
  st_dispatched : int;  (** morsels handed out *)
  st_stolen : int;  (** morsels run off the calling domain (slot > 0) *)
  st_skew : float;
      (** mean busiest-slot share of a phase relative to a perfect
          split; 1.0 = balanced, [size] = one slot did everything *)
}

val note_phase : int array -> unit
(** Record one finished phase from per-slot claim counts (index 0 is
    the calling domain). Phases with zero claims are ignored. *)

val stats : unit -> stats
val reset_stats : unit -> unit
