(** Dynamic events emitted by the simulator, one per warp-level action.

    This is the interface between execution and analysis: the trace
    layer ({!Gtrace}) turns these into the paper's abstract trace
    operations, and the runtime layer packs them into fixed-size log
    records.  Masks are per-warp lane bitmasks (bit [l] = lane [l]
    participated). *)

type access_kind = Load | Store | Atomic of Ptx.Ast.atom_op

type mem_access = {
  warp : int;  (** global warp id *)
  insn : int;  (** static instruction index within the kernel body *)
  kind : access_kind;
  space : Ptx.Ast.space;
  mask : int;  (** lanes that performed the access *)
  addrs : int array;  (** per-lane byte address (indexed by lane) *)
  values : int64 array;  (** per-lane value stored / loaded / swapped in *)
  width : int;  (** access width in bytes *)
}

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
