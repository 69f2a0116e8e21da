(** Allocation-light metric primitives.

    Every update is a handful of [Atomic] operations, safe to call
    from any domain of the parallel pipeline (§4.3): producers, the
    per-queue consumer domains, and the main thread may all hit the
    same counter concurrently.

    Telemetry is {e disabled} by default — the no-op sink.  While
    disabled every update is a single atomic flag read and an
    immediate return, so instrumented hot paths (one counter bump per
    warp record) cost nothing measurable and detector verdicts are
    bit-identical with telemetry on or off. *)

val enabled : unit -> bool
val set_enabled : bool -> unit
(** Flip the global sink.  Disabled (the default) means every update
    below is a no-op. *)

(** {1 Counters} — monotonically increasing totals. *)

type counter

val make_counter : unit -> counter
val counter_incr : counter -> unit
val counter_add : counter -> int -> unit
val counter_value : counter -> int

(** {1 Gauges} — instantaneous values (queue depth, high watermark). *)

type gauge

val make_gauge : unit -> gauge
val gauge_set : gauge -> int -> unit
val gauge_max : gauge -> int -> unit
(** [gauge_max g v] raises the gauge to [v] if [v] is larger — the
    lock-free high-watermark update. *)

val gauge_value : gauge -> int

(** {1 Histograms} — fixed upper-bound buckets chosen at creation;
    observations beyond the last bound land in an implicit overflow
    bucket. *)

type histogram

val make_histogram : bounds:float array -> histogram
(** @raise Invalid_argument if [bounds] is empty or not strictly
    increasing. *)

val histogram_observe : histogram -> float -> unit
val histogram_bounds : histogram -> float array
val histogram_counts : histogram -> int array
(** Per-bucket (non-cumulative) counts; length is [bounds + 1], the
    last entry being the overflow bucket. *)

val histogram_sum : histogram -> float
val histogram_count : histogram -> int

(** {1 Tagged union} used by the registry and exporters. *)

type t =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

val reset : t -> unit
