(** The typed component registry: the single source of truth for every
    pluggable optimizer component — cardinality estimators, cost models,
    plan enumerators, execution-engine configurations, and physical
    (index) designs.

    Each component is registered exactly once with its canonical name, a
    one-line doc string, and a typed value (or builder). Lookup either
    returns the typed value or a structured {!error} naming the unknown
    input and listing every valid alternative — replacing the bare
    [failwith]/[Not_found] string dispatch that used to be duplicated
    across [Session], [Harness] and [bin/jobench.ml].

    The generic ['a t] is also the backbone for registries owned by
    other layers (e.g. the experiment catalog in [lib/experiments]). *)

type error = {
  kind : string;  (** What was being looked up, e.g. ["estimator"]. *)
  input : string;  (** The name that failed to resolve. *)
  valid : string list;  (** Every canonical name the registry accepts. *)
}

val error_to_string : error -> string
(** ["unknown <kind> \"<input>\" (valid: a, b, c)"]. *)

type 'a entry = { name : string; doc : string; value : 'a }

type 'a t
(** A registry of named, documented components of one kind. *)

val make : kind:string -> ?parse:(string -> 'a option) -> 'a entry list -> 'a t
(** Build a registry. [parse] handles parameterized names (e.g.
    ["quickpick:100"]) after exact-name lookup fails. Raises
    [Invalid_argument] if two entries share a name. *)

val kind : 'a t -> string

val names : 'a t -> string list
(** Canonical names, in registration order. *)

val entries : 'a t -> 'a entry list

val find : 'a t -> string -> ('a, error) result

val find_exn : 'a t -> string -> 'a
(** Raises [Invalid_argument] with {!error_to_string} on unknown names. *)

(* ------------------------------------------------------------------ *)
(* The optimizer component registries                                  *)

type enumerator =
  | Exhaustive_dp
  | Quickpick of int
  | Greedy_operator_ordering
  | Simpli_squared
(** Plan-space enumeration strategies (Section 6 of the paper), plus the
    Simpli-Squared no-estimates baseline (Datta et al., PAPERS.md). *)

val enumerator_name : enumerator -> string
(** Canonical name, usable as a cache key: ["dp"], ["goo"],
    ["quickpick:N"], ["simpli"]. *)

val verify_enumerator : enumerator -> Verify.enumerator
(** The sanitizer's view of the same component. *)

type estimator_ctx = {
  db : Storage.Database.t;
  analyze : Dbstats.Analyze.t;  (** Default-settings ANALYZE. *)
  coarse : Dbstats.Analyze.t;  (** DBMS B's degraded statistics. *)
  graph : Query.Query_graph.t;
  truth : Cardest.True_card.t Util.Once.t;
      (** Exact cardinalities, forced only by the ["true"] oracle (a
          domain-safe {!Util.Once} cell, not [Lazy]). *)
  feedback : Reopt.Feedback.t option;
      (** Execution-time cardinality feedback for the ["feedback"]
          overlay estimator; [None] (an empty store) everywhere the
          re-optimization driver is not supplying one. *)
}
(** Everything an estimator builder may need; shared by [Session] and
    [Harness] so the registry is the only dispatch point. *)

val estimators : (estimator_ctx -> Cardest.Estimator.t) t
(** The paper's five systems plus ["PostgreSQL (true distinct)"]
    (Figure 5), ["true"] (the exact oracle), and ["feedback"] (the
    re-optimization overlay; with no store attached it behaves exactly
    like ["PostgreSQL"]). *)

val cost_models : Cost.Cost_model.t t
(** ["PostgreSQL"], ["tuned"], ["Cmm"]. *)

val enumerators : enumerator t
(** ["dp"], ["goo"], and parameterized ["quickpick:N"]. *)

val engines : Exec.Engine_config.t t
(** ["default"], ["no-nl"], ["robust"] (Figure 6's variants). *)

val index_configs : Storage.Database.index_config t
(** ["none"], ["pk"], ["pkfk"] (the paper's physical designs). *)
