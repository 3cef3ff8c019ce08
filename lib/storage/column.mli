(** A single materialized column, sealed behind compressed encodings.

    Integer columns hold their values directly; string columns hold
    dictionary codes. NULL is [Value.null_code] in either case at the
    API boundary; packed physical layouts store it as an in-band 0 so
    the sentinel never widens the bit width.

    The physical representation is chosen per column at build time from
    observed width, clustering and run structure:

    - [Flat]: one word per row (the reference layout).
    - [Bitpack]: fixed-width codes, [value - min + 1] with 0 as NULL.
    - [Frame]: frame-of-reference — per-4096-row-block minima plus
      fixed-width offsets; wins on sorted or clustered columns (ids).
    - [Rle]: run-length over codes; wins on constant or near-constant
      columns (run starts are binary-searched on random access).

    All encodings expose the same code sequence: [decode_into] and
    [get] return exactly what the flat layout would, so query results
    are byte-identical no matter which encoding backs a column. *)

type t

type encoding = Flat | Bitpack | Frame | Rle

val all_encodings : encoding list

val encoding_name : encoding -> string
val encoding_of_name : string -> encoding option

(** {1 Constructors} *)

val of_ints : name:string -> int option array -> t
(** Integer column; [None] becomes NULL. *)

val of_strings : name:string -> string option array -> t
(** Dictionary-encoded string column; [None] becomes NULL. *)

val of_codes : name:string -> ty:Value.ty -> ?dict:Dict.t -> int array -> t
(** Column from raw codes ([Value.null_code] for NULL). String columns
    must pass the dictionary the codes refer to. *)

val take : t -> int array -> t
(** [take t rows] gathers the given rows into a fresh column sharing
    [t]'s dictionary, so codes (and compiled predicates) transfer. *)

val recode : t -> encoding -> t
(** Rebuild with the given encoding forced, bypassing the chooser.
    Falls back to [Flat] when the data cannot satisfy the encoding's
    width limit. Codes and dictionary are preserved exactly. *)

(** {1 Shape} *)

val name : t -> string
val ty : t -> Value.ty

val dict : t -> Dict.t option
(** [Some] for string columns. *)

val length : t -> int
val encoding : t -> encoding

(** {1 Row access} *)

val value : t -> int -> Value.t
(** Decoded value of a row. *)

val is_null : t -> int -> bool

val get : t -> int -> int
(** Code at a row; [Value.null_code] for NULL. *)

val reader : t -> int -> int
(** [reader t] is a closure equivalent to [get t] with the
    representation dispatch hoisted out; for random-access hot loops
    (join keys, index probes). *)

val flat_view : t -> int array option
(** The underlying array when the column is [Flat] — a zero-copy fast
    path for scans. Callers must not mutate it. *)

val decode_into : t -> row_start:int -> len:int -> int array -> unit
(** Decode codes for rows [row_start, row_start+len) into
    [buf.(0..len-1)]. The late-materialization chunk API: scans decode
    one 4096-row selection-vector chunk at a time. *)

val iter_codes : t -> (int -> unit) -> unit
(** Visit every code in row order (sequential scans: index build,
    statistics). *)

val to_codes : t -> int array
(** Fully decoded copy of the code sequence. *)

(** {1 Cached statistics} *)

val distinct_count : t -> int
(** Exact number of distinct non-NULL values (cached at build time). *)

val null_count : t -> int

val min_max : t -> (int * int) option
(** Smallest and largest non-NULL code, or [None] if all rows are
    NULL. *)

val dense_span : n:int -> int -> int -> int option
(** [dense_span ~n lo hi] is [Some (hi - lo + 1)], the number of slots of
    an array indexed by [code - lo], when that is at most
    [max 65536 (4 * n)] for an input of [n] codes, and [None] when the
    range is wider or [hi - lo] overflows. Kernels that count per code
    over [n] codes (the distinct count here, ANALYZE's frequency pass)
    address such an array directly under this bound and hash otherwise,
    so their scratch stays proportional to their input. *)

(** {1 Value/code conversions} *)

val encode : t -> Value.t -> int option
(** Physical code a value would have in this column, or [None] when a
    string constant is absent from the dictionary (it then matches no
    row). [Some Value.null_code] encodes NULL. *)

val code_value : t -> int -> Value.t
(** Decode a code (not a row number) back to a value. *)

(** {1 Storage accounting} *)

val byte_size : t -> int
(** Physical bytes of the encoded payload (excluding the dictionary,
    which is shared across encodings). *)

val flat_byte_size : t -> int
(** Bytes the flat reference layout would use (one word per row). *)
