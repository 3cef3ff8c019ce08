(** The executor's hash table for hash joins, with explicit bucket
    management so that the paper's undersized-hash-table pathology
    (Section 4.1 / Figure 6) is physically reproduced.

    In fixed mode the bucket count is chosen once from the optimizer's
    cardinality estimate — underestimates produce long collision chains
    whose traversal is charged to the query. In resizing mode (the 9.5
    patch) the table doubles when the load factor exceeds 1, and the
    rehash work is charged instead. *)

type t

val create :
  ?bucket_floor:int -> estimated_rows:float -> resizable:bool -> int array -> t
(** [create ~estimated_rows ~resizable hashes] is an unsealed table
    whose entry [i] is build row [i], with key hash [hashes.(i)]. The
    table adopts [hashes] as its hash column — the caller must not
    write it afterwards. A negative hash marks a NULL key: that row is
    never linked into a chain and never counted as an entry.
    [bucket_floor] defaults to 1024, PostgreSQL's effective minimum.
    Buckets are always sized from [estimated_rows] — preserving the
    paper's undersized-table pathology. *)

val planned_buckets : ?bucket_floor:int -> estimated_rows:float -> unit -> int
(** The initial bucket count {!create} would choose for this floor and
    estimate — the sizing half of the recycling cache's key, so a
    cached sealed table is only reused where a fresh build would have
    been bucketed identically. *)

val bucket_count : t -> int

val entry_count : t -> int
(** Build rows with a non-NULL key. *)

val byte_size : t -> int
(** Physical bytes of the table's bucket, chain and hash arrays (every
    build row, NULL keys included) — what a recycled table keeps
    resident: 4 bytes per bucket and per chain link (entry indexes are
    {!Rowbuf} slots), 8 per key hash. *)

val seal : t -> int
(** Link every non-NULL entry's chain and settle the resize bill. A
    resizable table with [B0] initial buckets and [n] non-NULL entries
    returns the sum of [b] over [b = B0, 2*B0, 4*B0, ...] while
    [b < n] — the rehash work of doubling the buckets each time the
    entry count reaches them — and ends with one allocation at the
    final bucket count; a fixed table returns 0. Chains come out in
    ascending row order regardless of build schedule — the canonical
    probe order that makes results independent of worker count. Call
    exactly once, before the first probe. *)

(** {1 Load-factor telemetry} *)

type load_stats = {
  ls_tables : int;  (** tables sealed since the last reset *)
  ls_entries : int;
  ls_buckets : int;
  ls_mean_load : float;  (** entries per bucket across all sealed tables *)
  ls_max_load : float;  (** worst single table's final load factor *)
}

val load_stats : unit -> load_stats
val reset_load_stats : unit -> unit

(** {1 Probing}

    A probe walks the hash's bucket chain by entry index, with no
    callback:
    {[
      let e = ref (head t ~hash) and chain = ref 0 in
      while !e >= 0 do
        incr chain;
        if entry_hash t !e = hash then (* use build row [!e] *) ();
        e := next t !e
      done;
      probe_work ~chain:!chain
    ]}
    An entry is its build row's index. Chains run in ascending row order
    (see {!seal}); callers re-check real key equality. *)

val head : t -> hash:int -> int
(** First entry of the hash's bucket chain, or [-1] if it is empty. *)

val next : t -> int -> int
(** The entry after this one in its chain, or [-1] at the chain's end.
    Defined only for an entry on a chain: a NULL-key row has no link. *)

val entry_hash : t -> int -> int
(** The key hash of an entry's build row. *)

val probe_work : chain:int -> int
(** Work units of one probe that walked [chain] entries:
    [1 + chain / 4]. Chain entries are hash comparisons on consecutive
    memory, charged a quarter of a tuple's work each. *)

val mix : int -> int
(** Finalizer-style integer hash (SplitMix64 mixing), used to build entry
    hashes from key values. *)

val combine : int -> int -> int
(** Mix a second key column into a composite hash. *)
