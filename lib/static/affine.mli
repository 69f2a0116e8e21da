(** Affine abstract interpretation of address arithmetic.

    Tracks, per register, a value of the shape

    [base + c1*%tid.x + c2*(%ctaid.x * %ntid.x) + c3*%ctaid.x
          + c4*%ntid.x + c5*%nctaid.x + const]

    under the machine's wrapping Int64 arithmetic.  The product term
    captures the flat global-tid idiom ([mad %g, %ctaid, %ntid, %tid]).
    Loads, atomics, y/z registers, lane ids, and any unhandled operator
    produce Top. *)

type base = No_base | Param of string

type form = {
  base : base;
  tid : int64;
  gbase : int64;  (** coefficient of [%ctaid.x * %ntid.x] *)
  ctaid : int64;
  ntid : int64;
  nctaid : int64;
  const : int64;
}

type t = Bot | Aff of form | Top

val const : int64 -> t
val join : t -> t -> t
val equal : t -> t -> bool
val add : t -> t -> t
val pp : Format.formatter -> t -> unit

type ctx

val make_ctx : Ptx.Ast.kernel -> ctx
(** Parameter names plus shared-symbol segment offsets (computed the way
    [Simt.Machine.launch] lays the shared segment out). *)

module Env : sig
  type value = t
  type t

  val empty : t
  val find : t -> string -> value
end

val run :
  ctx ->
  Ptx.Ast.kernel ->
  blocks:Cfg.Graph.block array ->
  preds:(int -> int list) ->
  nblocks:int ->
  Env.t option array
(** Forward fixpoint over the block edges supplied by the caller; the
    result maps each instruction index to the environment in force just
    before it, or [None] when the block is unreachable from entry. *)

val address_of : ctx -> Env.t -> Ptx.Ast.address -> t
