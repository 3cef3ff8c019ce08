(** The process-wide metrics registry: named counters, gauges, and
    log2-bucket histograms behind one typed API.

    Mirrors the [Core.Registry] idiom — a metric name is canonical, and
    looking one up creates it on first use — but for telemetry cells
    instead of estimator constructors. All the suite's scattered
    counters ([Exec.Morsel] scheduler telemetry, [Exec.Join_table] load
    factors, [Exec.Join_cache] hit/miss totals, [Serve.Admission]
    peaks, [Core.Pipeline] cache counters) live on or mirror into this
    registry; [jobench trace] and [--trace] dump it alongside the span
    buffers.

    Cells are domain-safe: counters and gauges are atomics, histograms
    observe under a per-cell mutex. Unregistered cells
    ({!Counter.make}, {!Gauge.make}) serve per-instance telemetry
    (a cache's own hit counter) that is reported per run rather than
    process-wide. Requesting a registered name twice returns the same
    cell; requesting it as a different metric type raises
    [Invalid_argument]. *)

module Counter : sig
  type t

  val make : unit -> t
  (** A fresh unregistered cell (for per-instance stats). *)

  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
  val reset : t -> unit
end

module Gauge : sig
  type t

  val make : unit -> t
  val set : t -> float -> unit

  val set_max : t -> float -> unit
  (** Raise the gauge to [v] if [v] exceeds the current value
      (lock-free high-water mark). *)

  val value : t -> float
  val reset : t -> unit
end

module Hist : sig
  type t

  val make : unit -> t
  val observe : t -> int -> unit
  val snapshot : t -> Histogram.t
  (** A consistent copy of the distribution so far. *)

  val reset : t -> unit
end

val counter : string -> Counter.t
(** Find-or-create the registered counter [name]. *)

val gauge : string -> Gauge.t
val histogram : string -> Hist.t

type value =
  | Count of int
  | Level of float
  | Dist of Histogram.t

val dump : unit -> (string * value) list
(** Snapshot of every registered metric, sorted by name — the
    deterministic export order. *)
