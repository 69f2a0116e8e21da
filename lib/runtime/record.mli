(** Fixed-size log records exchanged between the (simulated) GPU logging
    code and the host race detector (§4.2, Figure 6).

    The paper's wire format is 16 header bytes (warp id, operation,
    32-bit active mask) plus 32 × 8-byte per-lane addresses = 272 bytes;
    {!to_bytes}/{!of_bytes} implement exactly that layout and round-trip
    every record.  Store/atomic values, which the real system can reread
    from device memory when applying the same-value filter, ride along
    in the OCaml record but are not part of the wire image; they are
    re-attached on the host side of the simulation. *)

type op =
  | Access of {
      kind : Simt.Event.access_kind;
      space : Ptx.Ast.space;
      width : int;
    }
  | Branch_if of { then_mask : int; else_mask : int }
  | Branch_else
  | Branch_fi
  | Barrier of { block : int }
  | Barrier_divergence of { expected : int }

type t = {
  warp : int;
  insn : int;  (** original static instruction index (-1 if n/a) *)
  op : op;
  mask : int;
  addrs : int array;  (** warp-size entries; zeros when not a memory op *)
  values : int64 array;  (** side channel, not serialized *)
}

val wire_size : int
(** 272 bytes, as in the paper. *)

val of_event : warp_size:int -> Simt.Event.t -> t option
(** [None] for events that produce no record ([Fence], [Kernel_done]). *)

val to_event : t -> Simt.Event.t

val to_bytes : t -> Bytes.t
(** Serialize to the 272-byte wire image (the {!Barracuda.Wire}
    layout, byte-identical to what the session core writes in place). *)

module View = Barracuda.Wire.View
(** Field accessors over a serialized record at an offset inside a
    larger buffer — the allocation-free way to inspect a record
    sitting in a queue ring slot.  Valid only while the slot is. *)

val of_view : ?values:int64 array -> warp_size:int -> Bytes.t -> pos:int -> t
(** Decode the record at offset [pos]; [values] restores the side
    channel.  Allocates the [t] — replay and tests only.
    @raise Invalid_argument on an unknown opcode. *)

val of_bytes : ?values:int64 array -> warp_size:int -> Bytes.t -> t
(** [of_view] over a standalone 272-byte image.  Counts into the
    [barracuda_pipeline_records_fallback_decode_total] telemetry
    counter: the steady-state record path never calls this. *)

val pp : Format.formatter -> t -> unit
