(** Dynamic events emitted by the simulator, one per warp-level action.

    This is the interface between execution and analysis: the trace
    layer ({!Gtrace}) turns these into the paper's abstract trace
    operations, and the runtime layer packs them into fixed-size log
    records.  Masks are per-warp lane bitmasks (bit [l] = lane [l]
    participated). *)

type access_kind = Load | Store | Atomic of Ptx.Ast.atom_op

(** One warp's memory access.  [addrs] and [values] are the launch's
    own lane buffers, one slot per lane of the warp, reused by its next
    access: they are valid only during the [on_event] call that carries
    the event.  A consumer that keeps a lane's address or value past the
    call copies it.  Lanes outside [mask] read zero in both. *)
type mem_access = {
  warp : int;  (** global warp id *)
  insn : int;  (** static instruction index within the kernel body *)
  kind : access_kind;
  space : Ptx.Ast.space;
  mask : int;  (** lanes that performed the access *)
  addrs : int array;  (** per-lane byte address (indexed by lane) *)
  values : Bytes.t;
      (** per-lane value stored / loaded / swapped in, in a wire cell's
          layout: lane [l]'s little-endian [int64] at byte [8 * l] *)
  width : int;  (** access width in bytes *)
}

val value : mem_access -> int -> int64
(** [value a lane]: lane [lane]'s value. *)

type t =
  | Access of mem_access
  | Fence of { warp : int; insn : int; scope : Ptx.Ast.fence_scope; mask : int }
  | Branch_if of { warp : int; insn : int; then_mask : int; else_mask : int }
      (** a conditional branch diverged; then-path executes first *)
  | Branch_else of { warp : int; mask : int }
      (** the warp switched to the second path of a divergent branch *)
  | Branch_fi of { warp : int; mask : int }
      (** the warp reconverged *)
  | Barrier of { block : int }  (** every thread of the block arrived *)
  | Barrier_divergence of { warp : int; insn : int; mask : int; expected : int }
      (** [bar.sync] executed with inactive threads: an error (§3.3.2) *)
  | Kernel_done

val mask_lanes : int -> int list
(** Lane indices set in a mask, ascending. *)

val pp : Format.formatter -> t -> unit
