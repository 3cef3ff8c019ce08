(** Flat buffers of base-table row ids at four bytes each.

    Every slot of an executor tuple is a row id below 2{^31}, so the
    executor stores them in 32 bits: stored batches, staging segments,
    stage buffers, build rows of the recycling cache and
    {!Join_table}'s chain links. Every access is bounds-checked, like an
    [int array]'s. *)

type t

val create : int -> t
(** [create n] holds [n] slots, uninitialized: write before reading. *)

val absent : int -> t
(** [absent n] holds [n] slots, each [-1]. *)

val length : t -> int

val byte_size : t -> int
(** [4 * length]. *)

val get : t -> int -> int
(** The id in slot [i]: in [\[0, 2{^31})], or [-1] in a slot
    {!absent} filled or {!copy} carried from one. *)

external get32 : t -> int -> int32 = "%caml_bytes_get32"
(** [Int32.to_int (get32 b (4 * i))] is [get b i]. Per-row loops in
    other modules read through this primitive, which compiles inline
    there; a function's body does not cross modules under dune's
    default (dev) profile, which compiles with [-opaque]. *)

val set : t -> int -> int -> unit
(** [set b i v] stores row id [v]. Raises [Invalid_argument] when [v]
    is outside [\[0, 2{^31})] — where a 32-bit store would wrap to a
    different row. *)

val set_ints : t -> int array -> int -> unit
(** [set_ints b ids n] stores [ids.(0 .. n - 1)] in slots [\[0, n)],
    each checked as by {!set}. *)

val copy : t -> int -> t -> int -> unit
(** [copy src i dst j] stores slot [i] of [src] into slot [j] of [dst],
    with no range check: the value was checked when it was stored. *)

val gather : t -> int -> t -> int -> int array -> unit
(** [gather dst at src base pos] copies slot [base + pos.(k)] of [src]
    to slot [at + k] of [dst], for every [k] of [pos]: one input
    tuple's part of an output tuple. *)

val blit : t -> int -> t -> int -> int -> unit
(** [blit src i dst j n] copies slots [\[i, i + n)] of [src] to
    [\[j, j + n)] of [dst]. *)
