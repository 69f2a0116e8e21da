(** Predictive race analysis driver.

    Pipeline: build the sync-preserving graph ({!Graph}), enumerate
    conflicting pairs per location that the relaxed happens-before
    leaves unordered, and for each pair not already reported by a
    replay of the recorded order, generate and validate a witness
    schedule ({!Witness}).

    Each stage is timed under the telemetry spans [predict.graph],
    [predict.enumerate] and [predict.witness]; totals land in the
    [barracuda_predict_*] counters. *)

type config = {
  max_predictions : int;  (** cap on emitted predictions *)
  validate : bool;  (** replay witnesses through the reference detector *)
}
(** At most 4,000,000 conflicting pairs are examined, and
    same-instruction same-value plain-write pairs are dropped, matching
    the online detector's benign filter. *)

val default_config : config

type status =
  | Observed  (** the recorded order already reports this pair *)
  | Confirmed  (** witness replay races on this pair *)
  | Unconfirmed  (** predicted, but the witness replay did not confirm *)

type prediction = {
  loc : Gtrace.Loc.t;
  first : Graph.access;
  second : Graph.access;
  status : status;
  witness : Witness.t option;  (** [None] for observed races *)
}

type t = {
  layout : Vclock.Layout.t;
  config : config;
  op_count : int;
  access_count : int;
  location_count : int;
  pairs_examined : int;
  pairs_dropped : int;  (** candidates lost to the pair or prediction cap *)
  observed_race_count : int;  (** races in the recorded order *)
  predictions : prediction list;
}

val run : ?config:config -> layout:Vclock.Layout.t -> Gtrace.Op.t list -> t

val predicted_count : t -> int
(** Confirmed + unconfirmed: races invisible in the recorded order. *)

val confirmed_count : t -> int
val unconfirmed_count : t -> int
val observed_pair_count : t -> int

val has_race : t -> bool
(** Any observed race or any prediction. *)

val status_string : status -> string
val pp : Format.formatter -> t -> unit
val to_string : t -> string
val to_json : t -> Telemetry.Json.t
