(** Sorting int arrays without a comparison function. *)

val sort : int array -> unit
(** Sorts in place, ascending, like [Array.sort compare] on ints; an
    O(n) pass per byte in which the values differ. *)
