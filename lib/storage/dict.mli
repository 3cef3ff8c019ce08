(** Per-column string dictionaries.

    Codes are dense integers assigned in first-seen order; comparisons and
    joins run on codes, while pattern predicates (LIKE) are compiled once
    into a set of matching codes by scanning the dictionary. A dictionary
    is immutable: it keeps its strings in an exact-size array and, once
    demanded, their lexicographic order, and no hash table. *)

type t

val encode : string option array -> t * int array
(** [encode values] is the dictionary of the distinct strings of
    [values], coded [0, 1, ...] in the order they first appear, with each
    value's code ([Value.null_code] for [None]). *)

val find_opt : t -> string -> int option
(** Code of the string, if the dictionary holds it (binary search over
    the lexicographic order, sorted on first demand). *)

val get : t -> int -> string
(** Inverse of the codes. Raises [Invalid_argument] on unknown codes. *)

val size : t -> int
(** Number of distinct strings. *)

val iter : (int -> string -> unit) -> t -> unit
(** Visit every (code, string) pair. *)

val matching_codes : t -> (string -> bool) -> bool array
(** [matching_codes d p] is a bitmap indexed by code, true where the
    decoded string satisfies [p]. Used to compile LIKE predicates. *)

val ranks : t -> int array
(** [ranks d].(code) is the code's rank in lexicographic ([String.compare])
    order of the dictionary's strings. Sorted once, on the first demand of
    [ranks], [find_opt] or [count_below], then shared: the array must not
    be mutated. Equality literals and order predicates demand it, so a
    dictionary that no predicate reads is never sorted. *)

val count_below : t -> string -> int
(** Number of dictionary strings strictly smaller than the given one
    (binary search over the lexicographic order). *)
