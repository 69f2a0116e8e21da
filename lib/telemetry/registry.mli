(** Named metric registry.

    Registration (name + label set → metric) is mutex-protected and
    expected off the hot path: components register handles once and
    update them lock-free afterwards.  Re-registering an existing
    name/label pair returns the same metric, so module-level handles
    in the pipeline, detector and queue all resolve to one instance.

    A process-wide {!default} registry is what the built-in hooks
    (pipeline stages, queue, detector, SIMT machine, sessions) write
    to; isolated registries can be created for tests. *)

type t

val create : unit -> t

val default : t
(** The process-wide registry used by the pipeline hooks. *)

val set_enabled : bool -> unit
(** Flip the global no-op sink (see {!Metric.set_enabled}); metrics in
    every registry are affected — the flag is per-process, matching
    "telemetry on/off", not per-registry. *)

val enabled : unit -> bool

val counter :
  ?help:string -> ?labels:(string * string) list -> t -> string ->
  Metric.counter

val gauge :
  ?help:string -> ?labels:(string * string) list -> t -> string ->
  Metric.gauge

val histogram :
  ?help:string -> ?labels:(string * string) list -> bounds:float array ->
  t -> string -> Metric.histogram

(** The three registration functions raise [Invalid_argument] if the
    name/label pair is already registered with a different metric
    kind. *)

val reset : t -> unit
(** Zero every registered metric (the registrations themselves
    survive).  Used between benchmark sections and test cases. *)

type sample = {
  name : string;
  help : string;
  labels : (string * string) list;
  metric : Metric.t;
}

val snapshot : t -> sample list
(** All registered metrics, sorted by name then labels — the stable
    order the exporters and the profile table rely on. *)

val find_counter : ?labels:(string * string) list -> t -> string -> int
(** Current value of a registered counter, 0 if absent. *)

val find_gauge : ?labels:(string * string) list -> t -> string -> int
(** Current value of a registered gauge, 0 if absent. *)
