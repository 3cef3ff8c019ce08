(** The feedback store of the mid-query re-optimization loop: a map from
    query subgraph (as a {!Util.Bitset} over the query's relations) to
    the cardinality the executor actually observed when it materialized
    that subgraph's intermediate result.

    The store is turned into an estimator with {!overlay}: observed
    subsets answer exactly, everything else delegates to the emulated
    system's estimator — the Perron-style "the optimizer knows precisely
    what it has already computed, and guesses only about the future". *)

type t

val create : unit -> t

val record : t -> Util.Bitset.t -> rows:int -> unit
(** Record (or overwrite) the observed cardinality of a subgraph. *)

val observed : t -> Util.Bitset.t -> float option

val cardinal : t -> int
(** Number of distinct subgraphs observed. *)

val overlay : fallback:Cardest.Estimator.t -> t -> Cardest.Estimator.t
(** An estimator answering exactly on the subsets observed {e so far}
    (snapshot semantics: later {!record} calls do not alter an existing
    overlay) and delegating every other subset to [fallback]. The
    instance name embeds the fallback's name plus an order-independent
    content digest of the snapshot, so caches keyed on estimator names
    stay sound across distinct feedback states. *)
