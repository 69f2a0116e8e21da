(* daemon-fleet: the race-checking daemon under the traffic of the
   repository's fleet soak (bench/main.ml, [section_fleet]).

   The daemon is the program a user runs, [barracuda serve], started as
   its own process on a Unix socket inside the run directory.  The
   traffic follows the soak: 3 tenants, 2 closed-loop clients each (a
   client sends its next job only after the previous reply), every job
   a check of one of the soak's 4 kernels ([kernel_mix]: the first four
   bug-suite cases, each parameter an [alloc:256] buffer), tagged with
   its tenant.  The seed draws which kernel each job checks.  Three
   departures from the soak, each so that the figures measure the
   daemon rather than a limit set on it:
   - the tenants keep the soak's 2-seat caps but no rate limit: the
     soak's 50 jobs/s token buckets would make throughput a measure of
     the bucket;
   - no background campaign: it runs on the daemon's idle time, which
     here is the calibration between passes;
   - 2 workers, one per CPU of the 2-vCPU host the bounds were set on,
     where the soak's 4 would only take turns.

   Every reply is checked against the reference detector run on the
   same launch (same layout, same argument specs): the verdict, and the
   distinct-race count unless the daemon answered statically. *)

module Ast = Ptx.Ast
module P = Service.Protocol

let tenants = 3
let clients_per_tenant = 2
let workers = 2
let seats = 2

let tenant i = Printf.sprintf "tenant%d" i

(* bench/main.ml's kernel_mix, with its reference verdicts. *)
let kernel_mix () =
  List.filteri (fun i _ -> i < 4) Bugsuite.Cases.all
  |> List.map (fun (c : Bugsuite.Case.t) ->
         let layout = c.Bugsuite.Case.layout and kernel = c.kernel in
         let sub =
           {
             (P.submit_defaults ~kind:P.Check
                (Format.asprintf "%a" Ptx.Printer.pp_kernel kernel))
             with
             P.layout =
               Some
                 ( layout.Vclock.Layout.blocks,
                   layout.threads_per_block,
                   layout.warp_size );
             args = List.map (fun _ -> "alloc:256") kernel.Ast.params;
           }
         in
         let expect =
           Oracle.reference ~layout
             ~setup:(fun m -> Service.Exec.resolve_args m kernel sub.P.args)
             kernel
         in
         (c.name, sub, expect))
  |> Array.of_list

type sample = {
  s_latency_ms : float;
  s_queue_ms : float;
  s_run_ms : float;
  s_detect_ms : float;
}

let judge (name, _, (expect : Oracle.expect)) = function
  | Ok (P.Result { outcome; queue_ms; run_ms; _ }) ->
      let racy = outcome.P.verdict = P.Racy in
      if
        racy = expect.Oracle.racy
        && (outcome.P.static || outcome.P.races = expect.Oracle.count)
        && not outcome.P.degraded
      then Ok (queue_ms, run_ms, outcome.P.detect_ms)
      else
        Error
          (Printf.sprintf "%s: %s with %d races, reference %d races" name
             (P.verdict_string outcome.P.verdict)
             outcome.P.races expect.Oracle.count)
  | Ok r -> Error (name ^ ": unexpected reply " ^ P.encode_response r)
  | Error e -> Error (name ^ ": transport: " ^ e)

let submit ~socket ti (_, sub, _) =
  Service.Client.submit ~retries:50 ~socket { sub with P.tenant = Some (tenant ti) }

(* [barracuda serve] with the soak's tenants.  Its output goes to a log
   in the run directory. *)
let spawn ~exe ~socket ~log =
  let quotas =
    List.concat
      (List.init tenants (fun i ->
           [ "--tenant-quota"; Printf.sprintf "%s:0:0:%d" (tenant i) seats ]))
  in
  let argv =
    Array.of_list
      ([ exe; "serve"; "--socket"; socket; "--workers"; string_of_int workers;
         "--sessions"; "0" ]
      @ quotas)
  in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid = Unix.create_process exe argv Unix.stdin out out in
  Unix.close out;
  pid

(* Daemons not yet stopped, killed at exit whatever way the run ends. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let stop (pid, socket) =
  (match Service.Client.shutdown ~socket with
  | Ok () -> ()
  | Error _ -> ( try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ()));
  ignore (Unix.waitpid [] pid);
  live := List.filter (( <> ) pid) !live

(* Set-up: start the daemon, wait for it, and send every tenant every
   kernel once, which fills the artifact cache. *)
let start (h : Harness.t) ~exe mix =
  let socket = Filename.concat h.dir "d.sock" in
  let pid = spawn ~exe ~socket ~log:(Filename.concat h.dir "serve.log") in
  live := pid :: !live;
  (* Service.Client.wait_ready polls every 10 ms, a coarse step against
     a start-up of about that length: poll every millisecond instead. *)
  let deadline = Harness.now_s () +. 30.0 in
  while not (Service.Client.ping ~socket) do
    if Harness.now_s () > deadline then failwith "daemon did not come up";
    Unix.sleepf 0.001
  done;
  for ti = 0 to tenants - 1 do
    Array.iter
      (fun job ->
        match judge job (submit ~socket ti job) with
        | Ok _ -> ()
        | Error e -> failwith ("warm-up: " ^ e))
      mix
  done;
  (pid, socket)

(* The detector's counters live in the daemon's registry: a traced run
   reads them from its metrics reply (Prometheus text) around the
   window and adds the difference to this process's registry, where
   the per-layer report reads them. *)
let detector_counters =
  [
    "barracuda_detector_records_total";
    "barracuda_detector_checks_total";
    "barracuda_detector_vc_full_total";
  ]

let daemon_counters socket =
  match Service.Client.metrics ~socket with
  | Error e -> failwith ("metrics: " ^ e)
  | Ok text ->
      List.map
        (fun name ->
          let value line =
            match String.split_on_char ' ' line with
            | [ n; v ] when n = name -> int_of_string_opt v
            | _ -> None
          in
          (name, Option.value ~default:0
                   (List.find_map value (String.split_on_char '\n' text))))
        detector_counters

let add_daemon_counters ~before ~after =
  List.iter2
    (fun (name, b) (_, a) ->
      Telemetry.Metric.counter_add
        (Telemetry.Registry.counter Telemetry.Registry.default name)
        (a - b))
    before after

let run ~exe (h : Harness.t) =
  let mix = kernel_mix () in
  let schedule =
    Array.init 65536 (fun _ -> Random.State.int h.rng (Array.length mix))
  in
  let daemon = Harness.repeat_setup h ~teardown:stop (fun () -> start h ~exe mix) in
  let socket = snd daemon in
  let next = Atomic.make 0 in
  let client ti stop_at () =
    let samples = ref [] and errors = ref [] in
    while Harness.now_s () < stop_at do
      let n = Atomic.fetch_and_add next 1 in
      let job = mix.(schedule.(n mod Array.length schedule)) in
      let s0 = Telemetry.Clock.now_ns () in
      let reply = submit ~socket ti job in
      let latency = Telemetry.Clock.ns_to_ms (Telemetry.Clock.elapsed_ns ~since:s0) in
      match judge job reply with
      | Ok (q, r, d) ->
          samples :=
            { s_latency_ms = latency; s_queue_ms = q; s_run_ms = r; s_detect_ms = d }
            :: !samples
      | Error e -> errors := (latency, e) :: !errors
    done;
    (!samples, !errors)
  in
  let ms_ns ms = Int64.of_float (ms *. 1e6) in
  let record (samples, errors) =
    List.iter
      (fun s ->
        Harness.note_latency h s.s_latency_ms;
        Span.carve "queue_wait" (ms_ns s.s_queue_ms);
        Span.carve "worker_run" (ms_ns (s.s_run_ms -. s.s_detect_ms));
        Span.carve "detect" (ms_ns s.s_detect_ms);
        Span.carve "protocol"
          (ms_ns (s.s_latency_ms -. s.s_queue_ms -. s.s_run_ms)))
      samples;
    List.iter
      (fun (latency, e) ->
        Harness.note_latency h latency;
        Harness.fail h e)
      errors
  in
  (* One pass is a slice-long stretch of the closed loop, so the
     calibration between slices (Harness.measure) runs while the daemon
     is idle. *)
  let segment () =
    let stop_at = Harness.now_s () +. Harness.slice_s in
    let clients = tenants * clients_per_tenant in
    let results = Array.make clients ([], []) in
    let threads =
      List.init clients (fun i ->
          Thread.create
            (fun () -> results.(i) <- client (i / clients_per_tenant) stop_at ())
            ())
    in
    List.iter Thread.join threads;
    Array.iter record results
  in
  Fun.protect
    ~finally:(fun () -> stop daemon)
    (fun () ->
      if h.trace then begin
        let before = daemon_counters socket in
        Harness.measure h segment;
        add_daemon_counters ~before ~after:(daemon_counters socket)
      end
      else Harness.measure h segment)
