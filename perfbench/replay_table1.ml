(* replay-table1: offline replay of recorded wire streams of the 26
   Table 1 workloads, the [barracuda check --record] / [barracuda
   stream] pair.

   Set-up records each workload once, with its own grid and memory
   set-up, through the live one-shot check (Session.run_stream with its
   capture hook) into a BAWS stream file.  One operation replays one
   file: read it, open a streaming session, feed the cells in chunks
   whose sizes are drawn from the seed (cut at arbitrary byte
   boundaries, as a transport delivers them), checkpoint every few
   chunks, and close for the final verdict.  Nothing is simulated
   during the timed loop: the cost is transport decode, reassembly
   with integrity checks, and detection.

   Every replay must be undegraded and report exactly the race set of
   the live run, which must equal the reference detector's race set on
   the same launch and agree with the workload's seeded races. *)

type item = {
  w : Workloads.Workload.t;
  file : string;
  live : Oracle.expect;  (** the recording run's race set *)
  truth : bool;  (** the recording run agrees with the seeded races *)
}

(* Record every workload through the live check into a stream file. *)
let record (h : Harness.t) =
  let dir = Filename.concat h.dir "streams" in
  Harness.mkdir_p dir;
  List.mapi
    (fun i (w : Workloads.Workload.t) ->
      let machine = Workloads.Workload.machine w in
      let args = w.Workloads.Workload.setup machine in
      let capture = Buffer.create (1 lsl 20) in
      let r =
        Gpu_runtime.Session.run_stream ~detector:Oracle.detector_config ~capture
          ~machine w.kernel args
      in
      if r.Gpu_runtime.Session.sr_machine_result.Simt.Machine.status
         <> Simt.Machine.Completed
      then failwith ("recording did not complete: " ^ w.name);
      let file = Filename.concat dir (Printf.sprintf "%02d.baws" i) in
      Gpu_runtime.Stream.write_file file ~layout:w.layout capture;
      {
        w;
        file;
        live = Oracle.of_report r.sr_report;
        truth = Workloads.Workload.races_match w r.sr_report;
      })
    Workloads.Registry.all

let checkpoint_every = 8

(* Chunk sizes a transport might deliver: 1 byte to 8 KiB, log-uniform,
   so cuts land inside records, value side channels and headers alike. *)
let chunk_sizes rng n =
  Array.init n (fun _ ->
      (1 lsl Random.State.int rng 14) + Random.State.int rng 64)

let replay chunks item =
  let layout, bytes =
    Span.with_ "load" (fun () -> Gpu_runtime.Stream.read_file item.file)
  in
  let s =
    Span.with_ "open" (fun () ->
        Gpu_runtime.Session.open_stream ~detector:Oracle.detector_config ~layout
          item.w.Workloads.Workload.kernel)
  in
  Span.with_ "reassemble" (fun () ->
      let len = String.length bytes in
      let rec go pos i =
        if pos < len then begin
          let n = min chunks.(i mod Array.length chunks) (len - pos) in
          Gpu_runtime.Session.feed_chunk s ~pos ~len:n bytes;
          if (i + 1) mod checkpoint_every = 0 then
            Span.with_ "checkpoint" (fun () ->
                ignore (Gpu_runtime.Session.checkpoint s));
          go (pos + n) (i + 1)
        end
      in
      go 0 0;
      Span.carve "detect" (Gpu_runtime.Session.stream_detect_ns s));
  Span.with_ "close" (fun () -> Gpu_runtime.Session.close_stream s)

let judge (h : Harness.t) item (p : Gpu_runtime.Session.progress) =
  let name = item.w.Workloads.Workload.name in
  Harness.expect h
    (p.Gpu_runtime.Session.p_final && not p.p_degraded)
    (lazy (name ^ ": replay degraded or not final"));
  Harness.expect h
    (Oracle.race_set_of_errors p.p_errors = item.live.Oracle.races)
    (lazy
      (Printf.sprintf "%s: replay reports %d races, live run %d" name
         p.p_race_count item.live.Oracle.count))

let run (h : Harness.t) =
  let items = Harness.repeat_setup h (fun () -> record h) in
  List.iter
    (fun item ->
      let w = item.w in
      let expect =
        Oracle.reference ~layout:w.Workloads.Workload.layout ~setup:w.setup
          w.kernel
      in
      Harness.expect h
        (expect.Oracle.races = item.live.Oracle.races)
        (lazy
          (Printf.sprintf "%s: live run reports %d races, reference %d"
             w.name item.live.Oracle.count expect.Oracle.count));
      Harness.expect h item.truth
        (lazy (w.name ^ ": live run disagrees with the seeded races")))
    items;
  let chunks = chunk_sizes h.rng 4096 in
  let items = Array.of_list items in
  Harness.measure h (fun () ->
      let order = Array.copy items in
      Harness.shuffle h.rng order;
      Array.iter
        (fun item ->
          match Harness.op h (fun () -> replay chunks item) with
          | Some p -> judge h item p
          | None -> ())
        order)
