(** A single materialized column, sealed behind a bit-packed layout.

    Integer columns hold their values directly; string columns hold
    dictionary codes. NULL is [Value.null_code] in either case at the
    API boundary; the packed layout stores it as an in-band 0 so the
    sentinel never widens the bit width.

    Every column is bit-packed at build time: each row stores
    [code - min + 1] (0 for NULL) in the fewest bits that hold the
    column's range. The one exception is a column whose range needs more
    than 57 bits (full-range ints from CSV input), which keeps one word
    per row. Every accessor returns the code sequence the column was
    built from, whichever of the two backs it. *)

type t

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

(** {1 Shape} *)

val name : t -> string
val ty : t -> Value.ty

val dict : t -> Dict.t option
(** [Some] for string columns. *)

val length : t -> int

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
(** Physical bytes of the encoded payload (excluding the dictionary). *)

val flat_byte_size : t -> int
(** Bytes an unpacked layout would use (one word per row). *)
