(** Abstract trace operations (paper §3.1).

    A program execution is modeled as a sequence of these operations.
    Memory operations are thread-level so one location is considered at a
    time; control flow and lockstep execution are warp-level; barriers
    are block-level.  Release/acquire operations are {e inferred} from
    fence + load/store/atomic patterns by {!Roles} and replace the raw
    accesses they bundle. *)

type scope = Block | Global_scope

type t =
  | Rd of { tid : int; loc : Loc.t }
  | Wr of { tid : int; loc : Loc.t; value : int64 }
      (** the stored value feeds the same-value intra-warp filter *)
  | Endi of { warp : int; mask : int }
      (** end of a warp instruction: join-and-fork of the active lanes *)
  | If of { warp : int; then_mask : int; else_mask : int }
  | Else of { warp : int; mask : int }
  | Fi of { warp : int; mask : int }
  | Bar of { block : int }
  | Atm of { tid : int; loc : Loc.t; value : int64 }
  | Acq of { tid : int; loc : Loc.t; scope : scope }
  | Rel of { tid : int; loc : Loc.t; scope : scope }
  | AcqRel of { tid : int; loc : Loc.t; scope : scope }

val tids : Vclock.Layout.t -> t -> int list
(** Threads involved in an operation ([tids(a)] in the paper): a
    singleton for memory operations, the active lanes for warp
    operations, the whole block for [Bar]. *)

val pp_scope : Format.formatter -> scope -> unit
val pp : Format.formatter -> t -> unit
