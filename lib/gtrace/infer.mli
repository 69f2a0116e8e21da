(** Translation from dynamic simulator events to abstract trace
    operations (paper §3.1, Figure 1).

    A warp-level memory event becomes one thread-level operation per
    active lane followed by an [endi]; the operation kind (plain
    read/write, [atm], acquire/release) comes from the static {!Roles}
    classification of the instruction.  Divergence events map directly to
    [if]/[else]/[fi], block barriers to [bar].  Accesses to local or
    parameter memory never enter the trace (they are thread-private).

    Data accesses are expanded to byte granularity (one [Rd]/[Wr] per
    byte accessed, as BARRACUDA's shadow memory is byte-granular);
    synchronization operations keep the base address of the access as
    the identity of the synchronization location. *)

type t

val create : layout:Vclock.Layout.t -> Roles.t array -> t
(** A translator over the kernel's per-instruction roles: its check
    plan's ([Static.Plan.roles]) on a detector's path, so the kernel is
    classified once. *)

val roles : t -> Roles.t array

val feed : t -> Simt.Event.t -> Op.t list
(** Trace operations for one event, in order. *)

val run :
  ?max_steps:int ->
  ?roles:Roles.t array ->
  layout:Vclock.Layout.t ->
  Simt.Machine.t ->
  Ptx.Ast.kernel ->
  int64 array ->
  Op.t list * Simt.Machine.result
(** Convenience: launch the kernel on [machine] and collect its whole
    trace. The [layout] must match the machine's.  [roles] defaults to
    {!Roles.classify} of the kernel (the reference oracle's own
    classification). *)
