(** A fixed pool of worker domains with order-preserving map combinators.

    The experiment harness fans per-query work units out over this pool.
    Items are claimed dynamically (an atomic index counter), but every
    result lands at its input index, so the output of {!map_array} and
    {!map_list} is identical to the serial map regardless of completion
    order — a prerequisite for byte-identical experiment output under
    [-j N].

    The calling domain participates in the work, so a pool created with
    [~domains:n] spawns [n - 1] workers; [~domains:1] spawns none and
    maps degrade to a plain left-to-right serial loop. *)

type t

val tune_gc : unit -> unit
(** Does nothing: no domain changes a GC parameter. Workers and callers
    alike run under OCaml's default settings ([Gc.get ()] is the same
    before and after a pool is created and used). The executor's per-row
    kernels allocate nothing, so a larger minor heap would buy few
    collections and cost one heap's worth of memory per domain. Kept
    only so existing callers still link. *)

val create : domains:int -> t
(** Spawn the pool. [domains] is the total parallelism including the
    caller; raises [Invalid_argument] when [< 1]. *)

val size : t -> int
(** Total parallelism ([domains] as passed to {!create}). *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** Parallel map with results in input order. If any [f x] raises, the
    pool stops claiming new items, waits for in-flight items, and
    re-raises the exception of the lowest-indexed failing item with its
    original backtrace. Nested calls (from inside a running map) run
    serially. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list

val run_workers : t -> (int -> unit) -> unit
(** [run_workers t f] runs [f slot] once for every slot in
    [0, size t), the caller participating. Each slot runs exactly once
    and two invocations never share a slot concurrently, so
    slot-indexed scratch needs no locking (the morsel scheduler's
    contract). When the pool is busy — a nested call, or a concurrent
    caller from another domain — the caller runs [f 0] alone, so the
    function always completes and callers must not assume real
    parallelism. Exceptions follow {!map_array}: lowest-slot error is
    re-raised after in-flight slots finish. *)

val shutdown : t -> unit
(** Stop and join all worker domains. Further maps raise
    [Invalid_argument]. Idempotent. *)
