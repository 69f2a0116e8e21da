(** The sharded backend for streaming sessions: a
    {!Gpu_runtime.Session.sink} over {!Engine}'s broadcast transport.

    [feed] is {!Engine.broadcast}: each cell, from the streaming
    session core or {!Gpu_runtime.Session.run_stream}, is copied
    verbatim into every shard ring, with no epoch stamp or
    reseal; [quiesce] waits for every shard ring to drain;
    [finish]/[abort] join the consumer domains.  Feeding the same record
    stream through this sink and through the serial sink yields
    bitwise-identical merged race sets and integrity counts — the shard
    parity guarantee, available incrementally. *)

val sink_of_engine : Engine.t -> Gpu_runtime.Session.sink
(** Wrap an existing engine.  The caller must not also drive the
    engine directly while the sink is live. *)

val sink :
  ?fault:Fault.Plan.t ->
  ?config:Barracuda.Detector.config ->
  ?plan:Static.Plan.t ->
  layout:Vclock.Layout.t ->
  shards:int ->
  Ptx.Ast.kernel ->
  Gpu_runtime.Session.sink
(** Create an engine (spawning its consumer domains) and wrap it.  Its
    detectors run under [plan] (default: the kernel's memoized plan,
    {!Static.Plan.of_kernel}). *)

val sink_for :
  ?config:Barracuda.Detector.config ->
  ?plan:Static.Plan.t ->
  layout:Vclock.Layout.t ->
  shards:int ->
  Ptx.Ast.kernel ->
  Gpu_runtime.Session.sink option
(** The detection backend for a shard count: [None] (the session's
    serial sink) at [shards <= 1], above that {!sink}.  Verdicts are
    bitwise identical either way. *)
