module Wire = Barracuda.Wire

(* ================================================================== *)
(* Record sinks                                                        *)

type sink = {
  feed : Bytes.t -> pos:int -> unit;
  quiesce : unit -> unit;
  sink_report : max_reports:int -> Barracuda.Report.t;
  finish : unit -> unit;
  abort : unit -> unit;
  detect_ns : unit -> int64;
  sink_records : unit -> int;
}

(* Transport-fault injection for the serial backend, applied to each
   sealed record as it arrives — where a real DMA/interconnect fault
   would land.  A delayed cell is copied aside and re-fed [hold]
   records later: by then the detector's sequence tracking has moved
   past it, so it surfaces as an accounted gap + stale pair rather
   than silently reordering detection state.  Returns the per-record
   delivery and the end-of-stream flush of still-held cells. *)
let transport_faults plan feed =
  let stream = Fault.Plan.Transport.stream plan in
  let held = ref [] in
  let flip buf ~pos bit =
    let byte = pos + (bit / 8) in
    Bytes.set_uint8 buf byte
      (Bytes.get_uint8 buf byte lxor (1 lsl (bit land 7)))
  in
  let tick () =
    if !held <> [] then begin
      let ready, waiting = List.partition (fun (n, _) -> n <= 1) !held in
      held := List.map (fun (n, b) -> (n - 1, b)) waiting;
      List.iter (fun (_, b) -> feed b ~pos:0) ready
    end
  in
  let deliver buf ~pos =
    (match Fault.Plan.Transport.next stream with
    | Fault.Plan.Transport.Pass -> feed buf ~pos
    | Fault.Plan.Transport.Flip raw ->
        (* flipped for the detector only: the record (and any capture
           of it) stays the one the producer sealed *)
        let bit = raw mod (Wire.size * 8) in
        flip buf ~pos bit;
        feed buf ~pos;
        flip buf ~pos bit
    | Fault.Plan.Transport.Drop -> ()
    | Fault.Plan.Transport.Duplicate ->
        feed buf ~pos;
        feed buf ~pos
    | Fault.Plan.Transport.Delay hold ->
        let cell = Bytes.create Wire.max_cell_size in
        Wire.copy_cell buf ~pos cell ~dst_pos:0;
        held := !held @ [ (hold, cell) ]);
    tick ()
  in
  let flush () =
    List.iter (fun (_, b) -> feed b ~pos:0) !held;
    held := []
  in
  (deliver, flush)

(* Detector time is summed as an [int], so its clock reads allocate
   nothing. *)
let serial_sink ?fault det =
  let detect = ref 0 in
  let records = ref 0 in
  let feed buf ~pos =
    let t0 = Telemetry.Clock.now_ns () in
    Barracuda.Detector.feed_record det buf ~pos;
    detect := !detect + Int64.to_int (Int64.sub (Telemetry.Clock.now_ns ()) t0)
  in
  let deliver, finish =
    match fault with
    | None -> (feed, ignore)
    | Some plan -> transport_faults plan feed
  in
  {
    feed =
      (fun buf ~pos ->
        incr records;
        deliver buf ~pos);
    quiesce = ignore;
    sink_report = (fun ~max_reports:_ -> Barracuda.Detector.report det);
    finish;
    abort = ignore;
    detect_ns = (fun () -> Int64.of_int !detect);
    sink_records = (fun () -> !records);
  }

(* ---- batch execution as a session -------------------------------- *)

(* Stage spans of a run, recorded once per run (one flag check with
   telemetry off): "execute" is the launch minus the detector time the
   sink spent inline — simulation, logging and sealing — and "detect"
   the backend's detector time. *)
let sp_execute = Telemetry.Span.create "execute"
let sp_detect = Telemetry.Span.create "detect"

let profile_stages =
  [
    ("instrument", [ "static.analyze" ]);
    ("execute", []);
    ("detect", [ "detector.feed_record" ]);
  ]

(* The producer half: execute [kernel] (the instrumented version when
   [inst] is given, remapping instruction ids back to the original
   kernel and dropping accesses whose logging was pruned), write every
   logged event as a cell — the record and its lane values — seal it,
   the one place a record is sealed, feed it to [sink] and capture
   it. *)
let drive ?max_steps ?deadline_ns ?fault ?inst ?capture ?tap ~machine sink
    kernel args =
  let orig, keep, run_kernel =
    match inst with
    | Some i ->
        let origin = i.Instrument.Pass.origin in
        let logged = i.Instrument.Pass.logged in
        let n = Array.length origin in
        ( (fun j -> if j >= 0 && j < n then Array.unsafe_get origin j else -1),
          (fun o -> o >= 0 && logged.(o)),
          i.Instrument.Pass.kernel )
    | None -> ((fun j -> j), (fun _ -> true), kernel)
  in
  (* zeroed, so the lane bytes a record's payload leaves unused (which
     the checksum does not cover) are reproducible in a recording *)
  let buf = Bytes.make Wire.max_cell_size '\000' in
  let seq = ref 0 in
  let emit values =
    Wire.write_values buf ~pos:0 values;
    Wire.seal buf ~pos:0 ~seq:!seq;
    incr seq;
    sink.feed buf ~pos:0;
    (* the sink has put back any byte a transport fault flipped, so the
       capture is a byte-faithful recording of the sealed stream *)
    match capture with
    | Some b ->
        Buffer.add_subbytes b buf 0
          (Wire.cell_size ~nvalues:(Bytes.length values / 8))
    | None -> ()
  in
  let on_event ev =
    match ev with
    | Simt.Event.Access a ->
        let o = orig a.Simt.Event.insn in
        if keep o then begin
          Wire.write_access buf ~pos:0 ~kind:a.Simt.Event.kind
            ~space:a.Simt.Event.space ~width:a.Simt.Event.width
            ~mask:a.Simt.Event.mask ~warp:a.Simt.Event.warp ~insn:o
            ~addrs:a.Simt.Event.addrs;
          emit a.Simt.Event.values
        end
    | Simt.Event.Branch_if { warp; insn; then_mask; else_mask } ->
        let o = orig insn in
        Wire.write_branch_if buf ~pos:0 ~mask:(then_mask lor else_mask) ~warp
          ~insn:o ~then_mask ~else_mask;
        emit Bytes.empty
    | Simt.Event.Branch_else { warp; mask } ->
        Wire.write_branch_else buf ~pos:0 ~warp ~insn:(-1) ~mask;
        emit Bytes.empty
    | Simt.Event.Branch_fi { warp; mask } ->
        Wire.write_branch_fi buf ~pos:0 ~warp ~insn:(-1) ~mask;
        emit Bytes.empty
    | Simt.Event.Barrier { block } ->
        Wire.write_barrier buf ~pos:0 ~warp:(-1) ~insn:(-1) ~mask:0 ~block;
        emit Bytes.empty
    | Simt.Event.Barrier_divergence { warp; insn; mask; expected } ->
        Wire.write_barrier_divergence buf ~pos:0 ~warp ~insn:(orig insn) ~mask
          ~expected;
        emit Bytes.empty
    | Simt.Event.Fence _ | Simt.Event.Kernel_done -> ()
  in
  let on_event =
    match tap with
    | None -> on_event
    | Some f ->
        fun ev ->
          f ev;
          on_event ev
  in
  try
    Simt.Machine.launch ?max_steps ?deadline_ns ?fault machine run_kernel args
      ~on_event
  with e ->
    sink.abort ();
    raise e

type stream_result = {
  sr_report : Barracuda.Report.t;
  sr_machine_result : Simt.Machine.result;
  sr_records : int;
  sr_detect_ns : int64;
}

exception Stopped of int

let stopped_message steps =
  Printf.sprintf "kernel stopped after the %d-step budget (possible livelock)"
    steps

let check_budget r =
  match r.sr_machine_result.Simt.Machine.status with
  | Simt.Machine.Max_steps n -> raise (Stopped n)
  | Simt.Machine.Completed | Simt.Machine.Deadline _ -> ()

(* A session's detector: under the caller's plan, else the kernel's
   memoized one. *)
let detector_for ~config ?plan ~layout kernel =
  let plan =
    match plan with Some p -> p | None -> Static.Plan.of_kernel kernel
  in
  Barracuda.Detector.create ~config ~layout plan

let run_stream ?(detector = Barracuda.Detector.default_config) ?plan ?sink
    ?max_steps ?deadline_ns ?fault ?inst ?capture ?tap ~machine kernel args =
  let sink =
    match sink with
    | Some s -> s
    | None ->
        serial_sink ?fault
          (detector_for ~config:detector ?plan
             ~layout:(Simt.Machine.layout machine) kernel)
  in
  let t0 = Telemetry.Clock.now_ns () in
  let mr =
    drive ?max_steps ?deadline_ns ?fault ?inst ?capture ?tap ~machine sink
      kernel args
  in
  (* before [finish]: the serial sink has detected inline during the
     launch, the sharded sink reports its (concurrent) time only once
     finished *)
  Telemetry.Span.record_ns sp_execute
    (Int64.sub (Telemetry.Clock.elapsed_ns ~since:t0) (sink.detect_ns ()));
  sink.finish ();
  let detect_ns = sink.detect_ns () in
  Telemetry.Span.record_ns sp_detect detect_ns;
  {
    sr_report =
      sink.sink_report ~max_reports:detector.Barracuda.Detector.max_reports;
    sr_machine_result = mr;
    sr_records = sink.sink_records ();
    sr_detect_ns = detect_ns;
  }

(* ================================================================== *)
(* Multi-launch sessions                                               *)

type rollup = {
  r_kernel : string;
  r_ns : int64;
  r_records : int;
  r_races : int;
}

type t = {
  layout : Vclock.Layout.t;
  mutable machine : Simt.Machine.t;
  mutable launches : int;
  mutable resets : int;
  mutable reports : (string * Barracuda.Report.t) list; (* newest first *)
  mutable rollups : rollup list; (* newest first *)
}

let m_launches =
  Telemetry.Registry.counter ~help:"Session kernel launches"
    Telemetry.Registry.default "barracuda_session_launches_total"

let m_races =
  Telemetry.Registry.counter
    ~help:"Distinct races reported across session launches"
    Telemetry.Registry.default "barracuda_session_races_total"

let m_records =
  Telemetry.Registry.counter
    ~help:"Records shipped across session launches"
    Telemetry.Registry.default "barracuda_session_records_total"

let sp_launch = Telemetry.Span.create "launch"

let create ~layout () =
  {
    layout;
    machine = Simt.Machine.create ~layout ();
    launches = 0;
    resets = 0;
    reports = [];
    rollups = [];
  }

let machine t = t.machine

let launch ?max_steps t kernel args =
  (* The per-launch rollup always carries a monotonic duration (cheap:
     two clock reads per launch); the "launch" span additionally feeds
     the registry when telemetry is enabled.  The launch runs the
     deployed instrumentation (block + static pruning), as the
     in-process tool would. *)
  let t0 = Telemetry.Clock.now_ns () in
  let inst = Instrument.Pass.instrument ~layout:t.layout kernel in
  let result = run_stream ?max_steps ~inst ~machine:t.machine kernel args in
  let ns = Telemetry.Clock.elapsed_ns ~since:t0 in
  Telemetry.Span.record_ns sp_launch ns;
  let report = result.sr_report in
  let races = Barracuda.Report.race_count report in
  let records = result.sr_records in
  Telemetry.Metric.counter_incr m_launches;
  Telemetry.Metric.counter_add m_races races;
  Telemetry.Metric.counter_add m_records records;
  t.launches <- t.launches + 1;
  t.reports <- (kernel.Ptx.Ast.kname, report) :: t.reports;
  t.rollups <-
    { r_kernel = kernel.Ptx.Ast.kname; r_ns = ns; r_records = records;
      r_races = races }
    :: t.rollups;
  result

let device_reset t =
  (* every launch drains its records before returning (the "delay the
     reset until the queues are fully drained" behaviour); the reset
     frees the device state, and the next launch reinitializes *)
  t.machine <- Simt.Machine.create ~layout:t.layout ();
  t.resets <- t.resets + 1

let launches t = t.launches
let resets t = t.resets
let reports t = List.rev t.reports
let rollups t = List.rev t.rollups

let total_races t =
  List.fold_left
    (fun acc (_, r) -> acc + Barracuda.Report.race_count r)
    0 t.reports

(* ---- streaming sessions ------------------------------------------ *)

(* Session gauges live in the default registry; the open count is an
   atomic because sessions open/close from service seat domains. *)
let open_count = Atomic.make 0

let g_open =
  Telemetry.Registry.gauge ~help:"Streaming sessions currently open"
    Telemetry.Registry.default "barracuda_session_open_streams"

let g_rate =
  Telemetry.Registry.gauge
    ~help:
      "Accepted records per second of the most recently \
       checkpointed/closed streaming session"
    Telemetry.Registry.default "barracuda_session_records_per_sec"

let c_stream_records =
  Telemetry.Registry.counter
    ~help:"Cells received across streaming sessions"
    Telemetry.Registry.default "barracuda_session_stream_records_total"

let h_checkpoint =
  Telemetry.Registry.histogram
    ~help:"Streaming-session checkpoint latency (ms)"
    ~bounds:[| 0.01; 0.05; 0.1; 0.5; 1.; 5.; 10.; 50.; 100. |]
    Telemetry.Registry.default "barracuda_session_checkpoint_ms"

type progress = {
  p_records : int;
  p_race_count : int;
  p_has_race : bool;
  p_degraded : bool;
  p_integrity : Barracuda.Report.integrity;
  p_errors : Barracuda.Report.error list;
  p_checkpoints : int;
  p_final : bool;
}

type stream = {
  st_sink : sink;
  st_reader : Stream.reader;
  st_max_reports : int;
  mutable st_checkpoints : int;
  mutable st_closed : bool;
  st_opened_ns : int64;
}

let open_stream ?sink ?(detector = Barracuda.Detector.default_config) ?plan
    ~layout kernel =
  let sink =
    match sink with
    | Some s -> s
    | None -> serial_sink (detector_for ~config:detector ?plan ~layout kernel)
  in
  let n = 1 + Atomic.fetch_and_add open_count 1 in
  Telemetry.Metric.gauge_set g_open n;
  {
    st_sink = sink;
    st_reader = Stream.reader ();
    st_max_reports = detector.Barracuda.Detector.max_reports;
    st_checkpoints = 0;
    st_closed = false;
    st_opened_ns = Telemetry.Clock.now_ns ();
  }

(* Each reassembled cell goes to the sink where it lies, still sealed
   by the producer that recorded it: the detector validates it exactly
   as it would a batch run's cell. *)
let feed_chunk st ?pos ?len chunk =
  if st.st_closed then invalid_arg "Session.feed_chunk: stream is closed";
  Telemetry.Metric.counter_add c_stream_records
    (Stream.feed st.st_reader ?pos ?len chunk st.st_sink.feed)

let progress_of ?(final = false) st =
  let r = st.st_sink.sink_report ~max_reports:st.st_max_reports in
  let i = Barracuda.Report.integrity r in
  {
    p_records =
      st.st_sink.sink_records () - i.Barracuda.Report.corrupt
      - i.Barracuda.Report.stale;
    p_race_count = Barracuda.Report.race_count r;
    p_has_race = Barracuda.Report.has_race r;
    p_degraded = Barracuda.Report.degraded r;
    p_integrity = i;
    p_errors = Barracuda.Report.errors r;
    p_checkpoints = st.st_checkpoints;
    p_final = final;
  }

let note_rate st p =
  let el = Telemetry.Clock.ns_to_s (Telemetry.Clock.elapsed_ns ~since:st.st_opened_ns) in
  if el > 0. then
    Telemetry.Metric.gauge_set g_rate
      (int_of_float (float_of_int p.p_records /. el))

let checkpoint st =
  if st.st_closed then invalid_arg "Session.checkpoint: stream is closed";
  let t0 = Telemetry.Clock.now_ns () in
  st.st_sink.quiesce ();
  st.st_checkpoints <- st.st_checkpoints + 1;
  let p = progress_of st in
  Telemetry.Metric.histogram_observe h_checkpoint
    (Telemetry.Clock.ns_to_ms (Telemetry.Clock.elapsed_ns ~since:t0));
  note_rate st p;
  p

let release_slot () =
  let n = Atomic.fetch_and_add open_count (-1) - 1 in
  Telemetry.Metric.gauge_set g_open (max 0 n)

let close_stream st =
  if st.st_closed then invalid_arg "Session.close_stream: stream is closed";
  st.st_sink.finish ();
  st.st_closed <- true;
  release_slot ();
  let p = progress_of ~final:true st in
  note_rate st p;
  p

let abort_stream st =
  if not st.st_closed then begin
    st.st_closed <- true;
    (try st.st_sink.abort () with _ -> ());
    release_slot ()
  end

let stream_records st = st.st_sink.sink_records ()
let stream_detect_ns st = st.st_sink.detect_ns ()
