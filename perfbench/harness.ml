(* Run bookkeeping shared by the workloads: set-up timing, the timed
   operation loop, correctness tallies and the result line. *)

(* One slice of the measured window, stated at reference speed. *)
type slice = {
  rate : float;  (** operations per second *)
  p50_ms : float;  (** median operation latency *)
  p90_ms : float;
}

type t = {
  seconds : float;
  trace : bool;
  dir : string;  (** scratch directory of this run, inside the checkout *)
  rng : Random.State.t;
  mutable setups : float list;  (** seconds per set-up repetition *)
  mutable lat : float array;  (** per-operation latency, ms *)
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int;
  mutable first_problem : string option;
  mutable window_s : float;  (** wall time of the measured window *)
  mutable slices : slice list;
  mutable calibration : float list;  (** calibration loop times, ms *)
}

let create ~seed ~seconds ~trace ~dir =
  {
    seconds;
    trace;
    dir;
    rng = Random.State.make [| seed; 0x62617272 |];
    setups = [];
    lat = Array.make 4096 0.0;
    attempted = 0;
    failed = 0;
    wrong = 0;
    first_problem = None;
    window_s = 0.0;
    slices = [];
    calibration = [];
  }

let now_s () = Int64.to_float (Telemetry.Clock.now_ns ()) /. 1e9

(* Record one operation's latency. *)
let note_latency t ms =
  if t.attempted >= Array.length t.lat then begin
    let bigger = Array.make (2 * Array.length t.lat) 0.0 in
    Array.blit t.lat 0 bigger 0 t.attempted;
    t.lat <- bigger
  end;
  t.lat.(t.attempted) <- ms;
  t.attempted <- t.attempted + 1

let problem t msg = if t.first_problem = None then t.first_problem <- Some msg

let fail t msg =
  t.failed <- t.failed + 1;
  problem t msg

let expect t ok msg =
  if not ok then begin
    t.wrong <- t.wrong + 1;
    problem t (Lazy.force msg)
  end

(* One timed operation.  An exception is a failed operation: counted,
   and the run goes on.  With tracing on, the operation is the root
   span, so its self time is the residual no layer span explains. *)
let op t f =
  let t0 = Telemetry.Clock.now_ns () in
  let result =
    match Span.with_ "op" f with
    | v -> Some v
    | exception e ->
        fail t ("operation raised " ^ Printexc.to_string e);
        None
  in
  note_latency t (Telemetry.Clock.ns_to_ms (Telemetry.Clock.elapsed_ns ~since:t0));
  result

let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list (List.sort compare xs) in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Machine-speed calibration.  On a shared host the speed of one CPU
   drifts by tens of percent from minute to minute (other tenants on the
   same cores), far more than the changes the benchmark must resolve.  A
   fixed loop of hashing, allocation and sorting — benchmark code, which
   no change to the program can speed up or slow down — runs between
   slices of the measured window and between set-ups, and times are
   scaled by [reference_ms / loop time]: stated at the speed of a host
   on which the loop takes [reference_ms].

   The loop runs in helper processes ([bench.exe --calibrate]), each
   with a fresh heap, so nothing the program keeps alive in this
   process can shift the divisor that scales the program's own times.
   One helper runs per CPU the run may use: a pinned workload gets one,
   on its CPU (the pin is inherited); a workload spread over all CPUs
   gets one on each, since the speed of either sets its pace. *)
let reference_ms = 15.0

let calibration_loop () =
  let t0 = Telemetry.Clock.now_ns () in
  let tbl = Hashtbl.create 4096 in
  let x = ref 12345 in
  for i = 0 to 49_999 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let k = !x land 0xffff in
    match Hashtbl.find_opt tbl k with
    | Some r -> r := !r + i
    | None -> Hashtbl.add tbl k (ref i)
  done;
  let a = Array.init 20_000 (fun i -> (i * 7919) land 0xffff) in
  Array.sort compare a;
  Telemetry.Clock.ns_to_ms (Telemetry.Clock.elapsed_ns ~since:t0)

(* The number of CPUs this process may run on, from the kernel's
   Cpus_allowed_list ("0-1", "3", "0,2-3"); 1 where that is unknown. *)
let allowed_cpus () =
  let count_range r =
    match String.split_on_char '-' (String.trim r) with
    | [ a ] when int_of_string_opt a <> None -> 1
    | [ a; b ] -> (
        match (int_of_string_opt a, int_of_string_opt b) with
        | Some a, Some b when b >= a -> b - a + 1
        | _ -> 0)
    | _ -> 0
  in
  let prefix = "Cpus_allowed_list:" in
  match
    In_channel.with_open_text "/proc/self/status" In_channel.input_lines
    |> List.find_opt (String.starts_with ~prefix)
  with
  | Some line ->
      let list =
        String.sub line (String.length prefix)
          (String.length line - String.length prefix)
      in
      max 1
        (List.fold_left ( + ) 0
           (List.map count_range (String.split_on_char ',' list)))
  | None | (exception Sys_error _) -> 1

(* A helper process: [bench.exe --calibrate] prints one loop time. *)
let calibration_process () =
  Unix.open_process_args_in Sys.executable_name
    [| Sys.executable_name; "--calibrate" |]

(* One calibration sample: the loop times of one helper per allowed
   CPU, all running at once. *)
let calibration_sample () =
  let procs = List.init (allowed_cpus ()) (fun _ -> calibration_process ()) in
  List.map
    (fun ic ->
      let line = In_channel.input_line ic in
      ignore (Unix.close_process_in ic);
      match Option.bind line float_of_string_opt with
      | Some ms -> ms
      | None -> failwith "calibration helper failed")
    procs

(* For a slice: the mean over the CPUs, since the speed of each sets
   the pace of a workload that keeps them all busy. *)
let calibrate t =
  let times = calibration_sample () in
  let ms = List.fold_left ( +. ) 0.0 times /. float_of_int (List.length times) in
  t.calibration <- ms :: t.calibration;
  ms

(* Set up [setup_repetitions] times from scratch, timing each and
   stating it at reference speed by the calibrations around it, as
   [measure] does for slices; the run uses the last set-up ([teardown]
   releases the others).  Set-up runs on one thread, which the OS puts
   on the fastest CPU it has: its calibration is the fastest helper's
   time.  daemon-fleet's set-up, mostly process start-up, tracks the
   loop least: on a 2-vCPU VM its figure spread 8-20% across seeds,
   against 2-7% for the other workloads. *)
let setup_repetitions = 15

let repeat_setup ?(teardown = ignore) t f =
  let fastest () = List.fold_left Float.min Float.infinity (calibration_sample ()) in
  let before = ref (fastest ()) in
  let timed () =
    let t0 = now_s () in
    let v = f () in
    let dt = now_s () -. t0 in
    let after = fastest () in
    t.setups <- (dt *. reference_ms /. ((!before +. after) /. 2.0)) :: t.setups;
    before := after;
    v
  in
  for _ = 2 to setup_repetitions do
    teardown (timed ())
  done;
  timed ()

(* Multiply a per-layer time measured during this run by this to state
   it at reference speed: from the median of the run's calibrations. *)
let speed_factor t =
  match t.calibration with
  | [] -> 1.0
  | samples -> reference_ms /. median samples

(* Nearest-rank percentile of the latencies of operations [from..]. *)
let percentile t ~from p =
  let n = t.attempted - from in
  if n <= 0 then 0.0
  else begin
    let a = Array.sub t.lat from n in
    Array.sort compare a;
    a.(min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1))
  end

(* Start the measured window: with tracing on, spans and the program's
   own telemetry counters from here on; set-up and oracle work before
   it are not counted.  Compacting first gives every run the same heap
   to start from, whatever the oracle left behind. *)
let begin_window t =
  Gc.compact ();
  if t.trace then begin
    Span.enable ();
    Telemetry.Registry.set_enabled true;
    Telemetry.Registry.reset Telemetry.Registry.default
  end

(* The measured window is cut into slices of at least [slice_s]: whole
   passes repeated until the slice is full, so every pass weighs the
   same whatever the seed's order.  The calibration helpers run between
   slices, and each slice's rate and latency percentiles are stated at
   reference speed by the mean of the calibrations around it.  The run
   reports the median over its slices of each, which a burst of outside
   load, or a slice whose calibrations missed a change of host speed,
   moves less than a whole-window figure.  The host's speed drifts
   within a run: over the same runs on a 2-vCPU VM (1-s slices),
   throughput scaled slice by slice spread 0.6% (replay-table1) and
   2.2% (daemon-fleet) across seeds, scaled by one factor for the whole
   run 3.4% and 8.1%.  Half-second slices halved the spread of
   replay-table1's latencies again. *)
let slice_s = 0.5

let measure t pass =
  begin_window t;
  let t0 = now_s () in
  let deadline = t0 +. t.seconds in
  let rec loop before =
    let p0 = now_s () and n0 = t.attempted in
    let rec fill () =
      pass ();
      let p1 = now_s () in
      if p1 -. p0 < slice_s then fill () else p1
    in
    let p1 = fill () in
    let after = calibrate t in
    let factor = reference_ms /. ((before +. after) /. 2.0) in
    t.slices <-
      {
        rate = float_of_int (t.attempted - n0) /. (p1 -. p0) /. factor;
        p50_ms = factor *. percentile t ~from:n0 0.50;
        p90_ms = factor *. percentile t ~from:n0 0.90;
      }
      :: t.slices;
    if p1 < deadline then loop after
  in
  loop (calibrate t);
  t.window_s <- now_s () -. t0

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end
