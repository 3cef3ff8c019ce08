(** Allocation-free multiset of fixed-arity integer tuples with float
    multiplicities — the aggregation kernel behind {!True_card}.

    Probes allocate nothing: the caller fills the table's reusable
    {!scratch} key and calls {!add_scratch} / {!find}. Keys of
    arity <= 2 are packed into a single non-negative int; the first
    value that does not fit migrates the table to an interning arena
    (flat [int array], one slice per distinct key). Groups are numbered
    densely in insertion order, so {!iter} is deterministic and
    multiplicities live in a plain float array. *)

type t

val create : ?expected:int -> arity:int -> unit -> t
(** [expected] is a hint for the number of distinct keys. *)

val arity : t -> int

val groups : t -> int
(** Number of distinct keys inserted so far. *)

val scratch : t -> int array
(** The table's reusable key buffer, of length [max 1 arity]. Fill
    components [0 .. arity-1] before calling {!add_scratch} or
    {!find}. Never retained by the table. *)

val add_scratch : t -> float -> unit
(** Add [delta] to the multiplicity of the scratch key (inserting it
    with multiplicity [delta] when absent). *)

val find_or_add : t -> int
(** Group id of the scratch key, inserting it with multiplicity 0 when
    absent. With {!counts} read after the call, a caller adds into the
    multiplicity without passing a boxed float across the module
    boundary. *)

val find : t -> int
(** Group id of the scratch key, -1 when absent. A group id rather than
    a multiplicity, so a caller's loop reading {!count} boxes no float
    (multiplicities are strictly positive by construction). *)

val count : t -> int -> float
(** Multiplicity of group [id], [0 <= id < groups t]. *)

val counts : t -> float array
(** The live multiplicity array, indexed by group id: entries
    [0 .. groups t - 1] are the groups', the rest is spare capacity.
    Inserting may replace it, so read it again after {!find_or_add} or
    {!add_scratch}. *)

val component : t -> int -> int -> int
(** [component t id f] is field [f] of group [id]'s key. *)

val clear : t -> unit
(** Remove every group, keeping the allocated capacity: the table then
    behaves as a fresh one of the same arity (a table that migrated to
    the arena packs narrow keys again). Costs O(groups) while few slots
    are in use. *)

val iter : t -> (int -> float -> unit) -> unit
(** Iterate groups in insertion order: [f id count]. *)

val total : t -> float
(** Sum of all multiplicities. *)

val is_packed : t -> bool
(** Whether the table still uses the single-word packed representation
    (exposed for tests). *)

(** Packed-key encoding, exposed for tests. Encoded values and packed
    pairs are always non-negative, and [null_code] round-trips through
    slot 0. *)
module Packed : sig
  val encode : int -> int
  (** Shift a column code into its non-negative encoding; NULL -> 0.
      Only valid when {!fits}. *)

  val decode : int -> int

  val fits : int -> bool
  (** Encodable as a single-field key: NULL or [0 <= v < max_int]. *)

  val fits2 : int -> bool
  (** Encodable into one 31-bit field of a packed pair. *)

  val pack2 : int -> int -> int

  val unpack2_fst : int -> int

  val unpack2_snd : int -> int
end
