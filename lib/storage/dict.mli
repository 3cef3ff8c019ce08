(** Per-column string dictionaries.

    Codes are dense integers assigned in insertion order; comparisons and
    joins run on codes, while pattern predicates (LIKE) are compiled once
    into a set of matching codes by scanning the dictionary. *)

type t

val create : unit -> t

val intern : t -> string -> int
(** Code for the string, allocating a fresh code on first sight. *)

val find_opt : t -> string -> int option
(** Code if the string is already interned. *)

val get : t -> int -> string
(** Inverse of [intern]. Raises [Invalid_argument] on unknown codes. *)

val size : t -> int
(** Number of distinct interned strings. *)

val iter : (int -> string -> unit) -> t -> unit
(** Visit every (code, string) pair. *)

val matching_codes : t -> (string -> bool) -> bool array
(** [matching_codes d p] is a bitmap indexed by code, true where the
    decoded string satisfies [p]. Used to compile LIKE predicates. *)

val ranks : t -> int array
(** [ranks d].(code) is the code's rank in lexicographic ([String.compare])
    order of the dictionary's strings. Sorted on first demand, then shared
    until the next new string is interned: the array must not be mutated.
    ANALYZE demands it only when an order predicate first reads a string
    column's statistics, so most dictionaries are never sorted. *)

val count_below : t -> string -> int
(** Number of dictionary strings strictly smaller than the given one
    (binary search over the lexicographic order). *)
