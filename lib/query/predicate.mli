(** Bound base-table predicates.

    A predicate is a conjunction of atoms over a single relation. Atoms
    keep their logical structure (the estimators inspect it) and compile
    to a fast row-level closure for execution. Constants are already
    encoded into the column's physical representation: integer values
    directly, string values as dictionary codes. *)

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type atom =
  | Cmp of { col : int; op : cmp; code : int }
      (** Comparison against an encoded constant. Order comparisons are
          only meaningful on integer columns. *)
  | In of { col : int; codes : int list }
      (** Equality with any of the encoded constants. *)
  | Str_cmp of { col : int; op : cmp; value : string }
      (** Lexicographic comparison on a string column (JOB compares rating
          strings this way). Compiled to a dictionary-code bitmap. *)
  | Like of { col : int; pattern : string; negated : bool }
  | Is_null of { col : int; negated : bool }
  | Between of { col : int; lo : int; hi : int }  (** Inclusive bounds. *)
  | Or of atom list
  | Const_false
      (** E.g. equality with a string absent from the dictionary. *)

type t = atom list
(** Conjunction; the empty list is TRUE. *)

val cmp_to_string : cmp -> string

val atom_column : atom -> int option
(** Column an atom constrains, or [None] for [Const_false] / multi-column
    [Or]s (ours are single-column, so [Or] reports its column when all
    branches agree). *)

val compile : Storage.Table.t -> t -> int -> bool
(** [compile table preds] returns a row predicate. LIKE atoms are
    pre-resolved into code bitmaps over the column dictionary, so the
    per-row test is O(atoms) and allocates nothing. *)

val compile_atom : Storage.Table.t -> atom -> int -> bool

val compile_selector : Storage.Table.t -> t -> int array -> int -> int -> int
(** [compile_selector table preds] returns [fill] such that
    [fill sel lo hi] writes the rows of [\[lo, hi)] passing [preds] into
    [sel.(0 ..)] in ascending order and returns their count. [sel] must
    have at least [hi - lo] slots. One compaction pass per atom over the
    selection vector replaces the per-row closure dispatch of {!compile}
    on the executor's hot scan path; both paths select exactly the same
    rows. *)

val selector_factory :
  Storage.Table.t -> t -> unit -> int array -> int -> int -> int
(** [selector_factory table preds] compiles the predicates once —
    including the expensive dictionary bitmaps for LIKE and string
    comparisons — and returns a thunk minting {!compile_selector}-style
    [fill] instances that share that compilation. An instance owns
    mutable decode scratch and must stay on one domain; the factory is
    freely shared, so morsel-parallel scans mint one instance per
    worker without recompiling (or re-scanning the dictionary) per
    worker. *)

val pp_atom : Storage.Table.t -> Format.formatter -> atom -> unit

val pp : Storage.Table.t -> Format.formatter -> t -> unit
