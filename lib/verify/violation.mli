(** Violations and check accounting shared by all analysis passes.

    Passes never raise on a bad artifact: they count every invariant
    check they evaluate and report the failures, so one run surfaces
    every problem at once. *)

type t = {
  pass : string;  (** which analysis pass fired, e.g. "plan-sanitizer" *)
  subject : string;  (** what was analyzed, e.g. "13d/dp/PostgreSQL" *)
  message : string;  (** human-actionable description *)
}

type result = {
  checks : int;  (** individual invariant checks evaluated *)
  violations : t list;  (** in detection order *)
}

val empty : result
val ok : result -> bool
val merge : result -> result -> result
val merge_all : result list -> result
val to_string : t -> string
val pp_report : Format.formatter -> result -> unit

(** Accumulator used inside a pass. *)
type collector

val collector : pass:string -> subject:string -> collector

val check :
  collector -> bool -> ('a, unit, string, unit) format4 -> 'a
(** [check c cond fmt ...] counts one check and records a violation with
    the formatted message when [cond] is false. The message is formatted
    only then, so a passing check runs none of its [%a] printers: pass
    values with [%a] rather than pre-formatted strings. *)

val result : collector -> result
