(** Monotonic-clock span timing.

    A span names a region of the pipeline — the stages are
    ["instrument"] (with ["static.analyze"]), ["execute"] and
    ["detect"], and sessions add a per-launch ["launch"] span — and
    accumulates, per name, three metrics in the target registry:

    - [barracuda_span_calls_total{span=NAME}]: completed executions;
    - [barracuda_span_ns_total{span=NAME}]: total monotonic time;
    - [barracuda_span_duration_ms{span=NAME}]: a fixed-bucket
      histogram of individual durations.

    When telemetry is disabled, {!with_} runs the thunk with no clock
    read at all. *)

type h
(** A resolved span handle.  Hot paths (one span per warp record)
    should create the handle once per run and reuse it; {!with_}
    resolves by name each call and suits coarse once-per-launch
    spans. *)

val create : ?registry:Registry.t -> string -> h

val name : h -> string

val with_h : h -> (unit -> 'a) -> 'a
(** Time the thunk and record into the handle's metrics.  The
    duration is recorded even if the thunk raises. *)

val with_ : ?registry:Registry.t -> name:string -> (unit -> 'a) -> 'a
(** [with_h (create ~registry name) f]. *)

val record_ns : h -> int64 -> unit
(** Record an externally measured duration (used where a stage's time
    is derived, e.g. execute = launch minus callback time). *)

val totals :
  ?registry:Registry.t -> unit -> (string * (int * int64)) list
(** Per-span (calls, total ns) rollup from the registry snapshot,
    sorted by descending total time — the profile table's input. *)

type row = {
  stage : string;
  nested : bool;
      (** a span recorded inside the stage listed above it: its time is
          already that stage's *)
  calls : int;
  ns : int64;
  share : float;  (** percent of the wall time *)
}

val breakdown :
  stages:(string * string list) list ->
  wall_ns:int64 ->
  (string * (int * int64)) list ->
  row list
(** The stage table of [barracuda profile] over {!totals}: each of
    [stages] in order, followed by the spans nested in it, then every
    other span that ran, as a stage of its own, then ["unattributed"]:
    the part of [wall_ns] no stage covers.  The shares of the rows that
    are not nested sum to 100%. *)

val duration_ms_bounds : float array
(** The fixed histogram buckets, in milliseconds. *)
