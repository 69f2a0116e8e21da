(* check-corpus: the one-shot [barracuda check] path over the whole
   kernel corpus the repository ships — the 26 Table 1 workloads and
   the 66-program bug suite, each launched with its own memory set-up.

   One operation is one check: read the PTX file, parse it, launch it
   on a fresh simulated device and race-check the run through the
   serial streaming-session core (Session.run_stream, the path
   [barracuda check FILE] takes).  Every pass checks every kernel once,
   in an order drawn from the seed.

   Each verdict must equal the reference detector's race set bitwise
   and agree with the kernel's ground truth (the bug suite's verdict,
   a workload's seeded races). *)

type item = {
  name : string;
  file : string;
  layout : Vclock.Layout.t;
  setup : Simt.Machine.t -> int64 array;
  truth : Barracuda.Report.t -> bool;  (** ground-truth judge *)
  mutable expect : Oracle.expect;
}

let sources () =
  let workloads =
    List.map
      (fun (w : Workloads.Workload.t) ->
        ( "w_" ^ w.Workloads.Workload.suite ^ "_" ^ w.name,
          w.layout,
          w.kernel,
          w.setup,
          Workloads.Workload.races_match w ))
      Workloads.Registry.all
  in
  let cases =
    List.map
      (fun (c : Bugsuite.Case.t) ->
        ( "c_" ^ c.Bugsuite.Case.name,
          c.layout,
          c.kernel,
          c.setup,
          fun report ->
            Barracuda.Report.has_race report = (c.verdict = Bugsuite.Case.Racy) ))
      Bugsuite.Cases.all
  in
  workloads @ cases

let file_name s =
  String.map (fun c -> if c = ' ' || c = '/' then '_' else c) s ^ ".ptx"

(* One check, exactly as the CLI runs it. *)
let check item =
  let kernel =
    Span.with_ "parse" (fun () ->
        Ptx.Parser.kernel_of_string (Harness.read_file item.file))
  in
  Span.with_ "execute" (fun () ->
      let machine = Simt.Machine.create ~layout:item.layout () in
      let args = item.setup machine in
      let r =
        Gpu_runtime.Session.run_stream ~detector:Oracle.detector_config ~machine
          kernel args
      in
      Span.carve "detect" r.Gpu_runtime.Session.sr_detect_ns;
      r)

let judge (h : Harness.t) item (r : Gpu_runtime.Session.stream_result) =
  let report = r.Gpu_runtime.Session.sr_report in
  Harness.expect h
    (r.sr_machine_result.Simt.Machine.status = Simt.Machine.Completed)
    (lazy (item.name ^ ": launch did not complete"));
  Harness.expect h
    (Oracle.race_set report = item.expect.Oracle.races)
    (lazy
      (Printf.sprintf "%s: %d races, reference has %d" item.name
         (Barracuda.Report.race_count report)
         item.expect.Oracle.count));
  Harness.expect h (item.truth report)
    (lazy (item.name ^ ": verdict disagrees with ground truth"))

(* Set-up: write the corpus out as PTX files, then warm up with one
   pass of checks (first-touch allocation, cold code paths). *)
let setup (h : Harness.t) =
  let dir = Filename.concat h.dir "corpus" in
  Harness.mkdir_p dir;
  let items =
    List.map
      (fun (name, layout, kernel, setup, truth) ->
        let file = Filename.concat dir (file_name name) in
        Harness.write_file file
          (Format.asprintf "%a" Ptx.Printer.pp_kernel kernel);
        { name; file; layout; setup; truth; expect = Oracle.none })
      (sources ())
  in
  List.iter (fun item -> ignore (check item)) items;
  Array.of_list items

let run (h : Harness.t) =
  let items = Harness.repeat_setup h (fun () -> setup h) in
  Array.iter
    (fun item ->
      let kernel = Ptx.Parser.kernel_of_string (Harness.read_file item.file) in
      item.expect <-
        Oracle.reference ~layout:item.layout ~setup:item.setup kernel)
    items;
  Harness.measure h (fun () ->
      let order = Array.copy items in
      Harness.shuffle h.rng order;
      Array.iter
        (fun item ->
          match Harness.op h (fun () -> check item) with
          | Some r -> judge h item r
          | None -> ())
        order)
