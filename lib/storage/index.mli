(** Unclustered indexes from key code to row ids, with no hash table.

    The executor's index-nested-loop join probes these; the optimizer's
    access-path choices depend on which of them exist (the paper's "no /
    PK / PK+FK" physical designs). NULL keys are not indexed.

    A column whose row [r] holds [base + r] for every row (every
    generated primary key) is indexed by the offset alone. Any other
    column gets a CSR layout: its sorted distinct keys, one offset per
    key, and one flat array of row ids, ascending within each key. A
    probe is a subtraction or a binary search and allocates nothing. *)

type t

val build : Table.t -> col:int -> t
(** Index one column of the table. *)

val slot : t -> int -> int
(** The key's slot, or [-1] if no row holds the key. *)

val first : t -> int -> int
val stop : t -> int -> int
(** The rows of slot [s] are [row t p] for [p] from [first t s] to
    [stop t s - 1]. *)

val row : t -> int -> int
(** The row id at a position. Rows ascend within a slot. *)

val count : t -> int -> int
(** Number of rows holding the key. *)
