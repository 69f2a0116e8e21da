(** Abstract syntax for the PTX subset BARRACUDA analyzes.

    PTX is Nvidia's virtual assembly language; a CUDA fat binary embeds
    architecture-neutral PTX that the driver JIT-compiles.  BARRACUDA
    instruments programs at this level, so the whole pipeline — parser,
    simulator, instrumenter, trace inference — shares this AST.

    The subset covers everything with concurrency semantics (loads,
    stores, atomics, fences, barriers, branches, predication) plus enough
    scalar arithmetic to express realistic kernels.  All values are
    64-bit integers; typed move/convert instructions are parsed and their
    width is kept only where it matters for race detection (memory access
    size, byte-granularity shadow memory). *)

(** State spaces of the CUDA memory hierarchy. *)
type space =
  | Global  (** visible to the whole grid *)
  | Shared  (** per-thread-block scratchpad *)
  | Local  (** private to one thread *)
  | Param  (** kernel parameters (read-only) *)

(** Cache operators on loads/stores; [Cg] skips the incoherent L1 and is
    the one the paper's litmus tests rely on. *)
type cache_op = Ca | Cg | Cs | Cv | Wb | Wt

(** Memory fence scope: [membar.cta] (block), [membar.gl] (device),
    [membar.sys] (system; treated as global for intra-kernel analysis). *)
type fence_scope = Cta | Gl | Sys

(** Atomic read-modify-write operators ([atom.*]). *)
type atom_op =
  | A_add
  | A_exch  (** fetch-and-set: the conventional lock release *)
  | A_cas  (** compare-and-swap: the conventional lock acquire *)
  | A_min
  | A_max
  | A_and
  | A_or
  | A_xor
  | A_inc
  | A_dec

(** Comparison operators for [setp]. *)
type cmp = C_eq | C_ne | C_lt | C_le | C_gt | C_ge

(** Two-operand ALU operators. *)
type binop =
  | B_add
  | B_sub
  | B_mul
  | B_div
  | B_rem
  | B_min
  | B_max
  | B_and
  | B_or
  | B_xor
  | B_shl
  | B_shr

(** Special (read-only) registers.  The bare constructors are the [.x]
    components; [.y]/[.z] components resolve against the layout's
    block/grid shape ({!Vclock.Layout.make_dims}-style flattening, done
    by the simulator). *)
type sreg =
  | Tid  (** thread x-index within the block *)
  | Ntid  (** block x-extent *)
  | Ctaid  (** block x-index *)
  | Nctaid  (** grid x-extent *)
  | Laneid  (** thread index within the warp *)
  | Warpid  (** warp index within the block *)
  | Tid_y
  | Tid_z
  | Ntid_y
  | Ntid_z
  | Ctaid_y
  | Ctaid_z
  | Nctaid_y
  | Nctaid_z

type operand =
  | Reg of string  (** virtual register, e.g. ["%r1"], ["%rd2"], ["%p3"] *)
  | Imm of int64
  | Sym of string  (** kernel parameter or shared-memory symbol *)
  | Sreg of sreg

type address = { base : operand; offset : int }
(** Memory operand [[base+offset]]. *)

(** Instruction opcodes.  [width] fields are in bytes. *)
type insn_kind =
  | Ld of { space : space; cache : cache_op; width : int; dst : string; addr : address }
  | St of { space : space; cache : cache_op; width : int; src : operand; addr : address }
  | Atom of {
      space : space;
      op : atom_op;
      width : int;
      dst : string;
      addr : address;
      src : operand;
      src2 : operand option;  (** second source for [cas] *)
    }
  | Membar of fence_scope
  | Bar_sync of int  (** [bar.sync n]; block-wide barrier *)
  | Bra of { uni : bool; target : string }
  | Setp of { cmp : cmp; dst : string; a : operand; b : operand }
  | Mov of { dst : string; src : operand }
  | Binop of { op : binop; dst : string; a : operand; b : operand }
  | Mad of { dst : string; a : operand; b : operand; c : operand }
      (** multiply-add: [dst = a*b + c] *)
  | Selp of { dst : string; a : operand; b : operand; pred : string }
  | Not of { dst : string; src : operand }  (** predicate/bitwise negation *)
  | Cvt of { dst : string; src : operand }  (** width conversions: a move *)
  | Ret
  | Exit
  | Nop

type insn = {
  label : string option;  (** label attached just before this instruction *)
  guard : (bool * string) option;
      (** predication: [Some (true, p)] for [@%p], [Some (false, p)] for [@!%p] *)
  kind : insn_kind;
}

type kernel = {
  kname : string;
  params : string list;  (** declaration order; launch arguments match it *)
  shared_decls : (string * int) list;  (** shared arrays: name, size in bytes *)
  body : insn array;
}

type program = kernel list

val mk : ?label:string -> ?guard:bool * string -> insn_kind -> insn

val label_index : kernel -> (string, int) Hashtbl.t
(** Map from label to instruction index. @raise Invalid_argument on a
    duplicate label. *)

val shared_offsets : kernel -> (string * int) list
(** Each shared array's byte offset in its block's shared memory: in
    declaration order, each array starting 8-byte aligned after the
    previous one.  What a shared symbol's value is on every launch. *)

val is_memory_access : insn_kind -> bool
(** Loads, stores and atomics: the instructions that touch memory. *)

val registers_read : insn -> string list
(** Registers an instruction reads, including its guard predicate. *)

val register_written : insn -> string option

val pp_space : Format.formatter -> space -> unit
val pp_fence_scope : Format.formatter -> fence_scope -> unit
val pp_atom_op : Format.formatter -> atom_op -> unit
val equal_space : space -> space -> bool
