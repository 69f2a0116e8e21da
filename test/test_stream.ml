(* The streaming-session core (lib/runtime/session + lib/runtime/stream):
   the load-bearing claim is chunk invariance — feeding a recorded wire
   stream through a session in ANY chunking (1-byte, mid-record,
   straddling barrier epochs) yields bitwise the batch race set, on the
   serial backend and on the sharded one.  Plus transport integrity
   through a session, the stream file codec, the reference detector's
   incremental verdicts, and the scheduler's session seats. *)

module Report = Barracuda.Report
module Session = Gpu_runtime.Session
module Stream = Gpu_runtime.Stream

(* ---- race-set extraction (as in test_shard) ---------------------- *)

type race_key = {
  loc : Gtrace.Loc.t;
  prev_tid : int;
  prev_kind : Report.access_kind;
  cur_tid : int;
  cur_kind : Report.access_kind;
}

let race_set_of_errors errors =
  errors
  |> List.filter_map (function
       | Report.Race r ->
           Some
             {
               loc = r.Report.loc;
               prev_tid = r.Report.prev_tid;
               prev_kind = r.Report.prev_kind;
               cur_tid = r.Report.cur_tid;
               cur_kind = r.Report.cur_kind;
             }
       | Report.Barrier_divergence _ -> None)
  |> List.sort_uniq Stdlib.compare

let race_set report = race_set_of_errors (Report.errors report)

(* Parity needs the full stream with no report cap in the way. *)
let detector_config =
  { Barracuda.Detector.default_config with max_reports = 100000 }

(* ---- recording a one-shot run ------------------------------------ *)

(* One-shot through the session core, capturing the stream: the
   recording IS the batch feed, so replaying it chunked isolates the
   chunking as the only variable. *)
let oneshot ~layout kernel args_of_machine =
  let machine = Simt.Machine.create ~layout () in
  let args = args_of_machine machine in
  let buf = Buffer.create 4096 in
  let r =
    Session.run_stream ~detector:detector_config ~capture:buf ~machine kernel
      args
  in
  (race_set r.Session.sr_report, r.Session.sr_records, Buffer.contents buf)

(* Replay [bytes] through a streaming session, cutting chunks by the
   (cyclic, positive) sizes in [cuts], checkpointing every
   [checkpoint_every] chunks, and return the final progress.
   [shards = 0] is the serial backend. *)
let streamed ~layout ~shards ~cuts ~checkpoint_every kernel bytes =
  let sink =
    if shards = 0 then None
    else
      Some
        (Shard.Stream.sink ~config:detector_config ~layout ~shards kernel)
  in
  let st = Session.open_stream ?sink ~detector:detector_config ~layout kernel in
  match
    let total = String.length bytes in
    let ncuts = Array.length cuts in
    let pos = ref 0 and i = ref 0 in
    while !pos < total do
      let len = min cuts.(!i mod ncuts) (total - !pos) in
      Session.feed_chunk st ~pos:!pos ~len bytes;
      pos := !pos + len;
      incr i;
      if checkpoint_every > 0 && !i mod checkpoint_every = 0 then
        ignore (Session.checkpoint st)
    done;
    Session.close_stream st
  with
  | p -> p
  | exception e ->
      Session.abort_stream st;
      raise e

(* What a replay must share with the one-shot run: the race set and
   the records accepted. *)
let outcome p = (race_set_of_errors p.Session.p_errors, p.Session.p_records)

(* ---- QCheck: chunk invariance ------------------------------------ *)

let gen_chunking =
  QCheck2.Gen.(
    (* sizes deliberately straddle every interesting boundary: single
       bytes, sub-record, exactly a record, and multi-cell *)
    let* cuts =
      array_size (int_range 1 24)
        (oneof
           [
             int_range 1 8;
             int_range (Barracuda.Wire.size - 4) (Barracuda.Wire.size + 4);
             int_range 1 (2 * Stream.max_cell_size);
           ])
    in
    let* checkpoint_every = int_range 0 5 in
    return (cuts, checkpoint_every))

let gen_case = QCheck2.Gen.pair Gen.gen_program gen_chunking

let print_case (prog, (cuts, ce)) =
  Printf.sprintf "program:\n%s\ncuts=[%s] checkpoint_every=%d"
    (Gen.print_program prog)
    (String.concat ";" (Array.to_list (Array.map string_of_int cuts)))
    ce

let prop_chunk_invariance =
  QCheck2.Test.make
    ~name:
      "any chunking of a recorded stream reproduces the batch race set \
       (serial and 4 shards)"
    ~count:60 ~print:print_case gen_case
    (fun (prog, (cuts, checkpoint_every)) ->
      let kernel = Gen.kernel_of_program prog in
      let layout = Gen.layout in
      let expected, records, bytes = oneshot ~layout kernel Gen.setup in
      let serial =
        outcome
          (streamed ~layout ~shards:0 ~cuts ~checkpoint_every kernel bytes)
      in
      let sharded =
        outcome
          (streamed ~layout ~shards:4 ~cuts ~checkpoint_every kernel bytes)
      in
      if serial <> (expected, records) then
        QCheck2.Test.fail_reportf
          "serial stream diverged: %d races / %d records, one-shot %d / %d"
          (List.length (fst serial))
          (snd serial) (List.length expected) records;
      if sharded <> (expected, records) then
        QCheck2.Test.fail_reportf
          "4-shard stream diverged: %d races / %d records, one-shot %d / %d"
          (List.length (fst sharded))
          (snd sharded) (List.length expected) records;
      true)

(* ---- fixed awkward chunkings over a real racy case --------------- *)

let test_awkward_chunk_sizes () =
  let c =
    List.find
      (fun (c : Bugsuite.Case.t) -> c.Bugsuite.Case.verdict <> Bugsuite.Case.Race_free)
      Bugsuite.Cases.all
  in
  let layout = c.Bugsuite.Case.layout in
  let kernel = c.Bugsuite.Case.kernel in
  let expected, records, bytes =
    oneshot ~layout kernel c.Bugsuite.Case.setup
  in
  Alcotest.(check bool) "the case actually races" true (expected <> []);
  List.iter
    (fun size ->
      List.iter
        (fun shards ->
          let got =
            outcome
              (streamed ~layout ~shards ~cuts:[| size |] ~checkpoint_every:3
                 kernel bytes)
          in
          if got <> (expected, records) then
            Alcotest.failf "chunk=%d shards=%d: diverged from one-shot" size
              shards)
        [ 0; 4 ])
    [ 1; 7; Barracuda.Wire.size - 1; Barracuda.Wire.size;
      Stream.max_cell_size + 1 ]

(* ---- full-bugsuite streaming parity ------------------------------ *)

let test_bugsuite_streaming_parity () =
  List.iter
    (fun (c : Bugsuite.Case.t) ->
      let layout = c.Bugsuite.Case.layout in
      let kernel = c.Bugsuite.Case.kernel in
      let expected, records, bytes =
        oneshot ~layout kernel c.Bugsuite.Case.setup
      in
      List.iter
        (fun shards ->
          let got =
            outcome
              (streamed ~layout ~shards ~cuts:[| 997 |] ~checkpoint_every:4
                 kernel bytes)
          in
          if got <> (expected, records) then
            Alcotest.failf "%s @ %d shards: streamed race set differs"
              c.Bugsuite.Case.name shards)
        [ 0; 4 ])
    Bugsuite.Cases.all

(* ---- integrity: corruption is absorbed and surfaced -------------- *)

(* Flip a checksum-covered header byte of the record at [pos]. *)
let corrupt_at b pos =
  Bytes.set_uint8 b (pos + 12) (Bytes.get_uint8 b (pos + 12) lxor 0xff)

let test_corrupt_record_counted () =
  let c = List.hd Bugsuite.Cases.all in
  let layout = c.Bugsuite.Case.layout in
  let kernel = c.Bugsuite.Case.kernel in
  let _, records, bytes = oneshot ~layout kernel c.Bugsuite.Case.setup in
  Alcotest.(check bool) "have records" true (records > 1);
  let b = Bytes.of_string bytes in
  corrupt_at b 0;
  List.iter
    (fun shards ->
      let p =
        streamed ~layout ~shards ~cuts:[| 4096 |] ~checkpoint_every:0 kernel
          (Bytes.to_string b)
      in
      let label what = Printf.sprintf "%d shards: %s" shards what in
      Alcotest.(check bool) (label "degraded") true p.Session.p_degraded;
      Alcotest.(check int) (label "one corrupt record skipped") 1
        p.Session.p_integrity.Report.corrupt;
      Alcotest.(check int) (label "the rest made it") (records - 1)
        p.Session.p_records)
    [ 0; 4 ];
  (* replayed against a one-instruction kernel, every access names an
     instruction the kernel lacks: counted as corrupt, not raised *)
  let st =
    Session.open_stream ~detector:detector_config ~layout
      (Gen.kernel_of_program [])
  in
  Session.feed_chunk st bytes;
  let p = Session.close_stream st in
  Alcotest.(check bool) "final" true p.Session.p_final;
  Alcotest.(check bool) "degraded" true p.Session.p_degraded;
  Alcotest.(check bool) "out-of-range records counted as corrupt" true
    (p.Session.p_integrity.Report.corrupt > 0)

(* The cells of a recorded stream, in order. *)
let cells_of bytes =
  let rec go pos acc =
    if pos >= String.length bytes then List.rev acc
    else
      let n = String.get_uint16_le bytes (pos + Barracuda.Wire.size) in
      let len = Stream.cell_size ~nvalues:n in
      go (pos + len) (String.sub bytes pos len :: acc)
  in
  go 0 []

(* Corruption, loss and duplication in one stream: every backend counts
   each anomaly once and accepts the same records. *)
let test_degraded_counts_alike () =
  let c =
    List.find
      (fun (c : Bugsuite.Case.t) ->
        c.Bugsuite.Case.name = "ww_global_inter_block")
      Bugsuite.Cases.all
  in
  let layout = c.Bugsuite.Case.layout in
  let kernel = c.Bugsuite.Case.kernel in
  let _, records, bytes = oneshot ~layout kernel c.Bugsuite.Case.setup in
  Alcotest.(check int) "recorded records" 8 records;
  (* corrupt cell 2, drop cell 3, duplicate cell 5 *)
  let mangled =
    List.mapi
      (fun i cell ->
        match i with
        | 2 ->
            let b = Bytes.of_string cell in
            corrupt_at b 0;
            [ Bytes.to_string b ]
        | 3 -> []
        | 5 -> [ cell; cell ]
        | _ -> [ cell ])
      (cells_of bytes)
    |> List.concat |> String.concat ""
  in
  List.iter
    (fun shards ->
      let p =
        streamed ~layout ~shards ~cuts:[| 4096 |] ~checkpoint_every:0 kernel
          mangled
      in
      let label what = Printf.sprintf "%d shards: %s" shards what in
      let i = p.Session.p_integrity in
      Alcotest.(check bool) (label "degraded") true p.Session.p_degraded;
      Alcotest.(check int) (label "corrupt") 1 i.Report.corrupt;
      Alcotest.(check int) (label "gaps") 2 i.Report.gaps;
      Alcotest.(check int) (label "stale") 1 i.Report.stale;
      Alcotest.(check int) (label "records accepted") 6 p.Session.p_records)
    [ 0; 3 ]

let test_framing_is_loud () =
  let c = List.hd Bugsuite.Cases.all in
  let layout = c.Bugsuite.Case.layout in
  let kernel = c.Bugsuite.Case.kernel in
  let _, _, bytes = oneshot ~layout kernel c.Bugsuite.Case.setup in
  (* an impossible value count desynchronizes cell boundaries: loud *)
  let b = Bytes.of_string bytes in
  Bytes.set_uint16_le b Barracuda.Wire.size 0xffff;
  let st = Session.open_stream ~detector:detector_config ~layout kernel in
  (match Session.feed_chunk st (Bytes.to_string b) with
  | () -> Alcotest.fail "expected Stream.Framing"
  | exception Stream.Framing _ -> ());
  Session.abort_stream st

(* ---- recorded stream files --------------------------------------- *)

let test_stream_file_roundtrip () =
  let c = List.hd Bugsuite.Cases.all in
  let layout = c.Bugsuite.Case.layout in
  let kernel = c.Bugsuite.Case.kernel in
  let expected, records, bytes = oneshot ~layout kernel c.Bugsuite.Case.setup in
  let path = Filename.temp_file "barracuda-stream" ".baws" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let buf = Buffer.create (String.length bytes) in
      Buffer.add_string buf bytes;
      Stream.write_file path ~layout buf;
      let layout', cells = Stream.read_file path in
      Alcotest.(check bool) "layout survives the header" true (layout' = layout);
      Alcotest.(check int) "cell bytes survive" (String.length bytes)
        (String.length cells);
      let got =
        outcome
          (streamed ~layout:layout' ~shards:0 ~cuts:[| 512 |]
             ~checkpoint_every:0 kernel cells)
      in
      Alcotest.(check bool) "replay matches the recording run" true
        (got = (expected, records)))

let test_bad_header_rejected () =
  match Stream.decode_header (String.make Stream.header_size '\x00') with
  | _ -> Alcotest.fail "expected Stream.Framing"
  | exception Stream.Framing _ -> ()

(* A file too short for a header, or with the wrong magic, is a
   framing error, never [End_of_file]. *)
let test_bad_stream_files_rejected () =
  let path = Filename.temp_file "barracuda-stream" ".baws" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      List.iter
        (fun (name, contents) ->
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc contents);
          match Stream.read_file path with
          | _ -> Alcotest.failf "%s: expected Stream.Framing" name
          | exception Stream.Framing _ -> ())
        [
          ("10-byte file", String.sub (Stream.encode_header Gen.layout) 0 10);
          ( "bad magic",
            "BAWX"
            ^ String.sub (Stream.encode_header Gen.layout) 4
                (Stream.header_size - 4)
            ^ String.make 64 '\000' );
        ])

(* Recordings of the first eight bug-suite cases, header included: the
   seeds the mutator starts from. *)
let recordings =
  lazy
    (Array.of_list
       (List.map
          (fun (c : Bugsuite.Case.t) ->
            let layout = c.Bugsuite.Case.layout in
            let _, _, bytes =
              oneshot ~layout c.Bugsuite.Case.kernel c.Bugsuite.Case.setup
            in
            Stream.encode_header layout ^ bytes)
          (List.filteri (fun i _ -> i < 8) Bugsuite.Cases.all)))

(* A mutated recording is read and reassembled, and nothing more: no
   detector is opened at a mutated header's layout, whose [blocks] may
   ask for billions of warps. *)
let prop_mutated_stream_files =
  QCheck2.Test.make ~name:"mutated stream files load or fail, never raise"
    ~count:500
    ~print:(fun (i, muts, chunk) ->
      Printf.sprintf "recording %d in %d-byte chunks, mutated to %S" i chunk
        (Gen.mutate (Lazy.force recordings).(i) muts))
    QCheck2.Gen.(
      triple (int_bound 7) Gen.gen_mutations (int_range 1 Stream.max_cell_size))
    (fun (i, muts, chunk) ->
      let path = Filename.temp_file "barracuda-mutated" ".baws" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          Out_channel.with_open_bin path (fun oc ->
              output_string oc (Gen.mutate (Lazy.force recordings).(i) muts));
          match Stream.read_file path with
          | exception Stream.Framing _ -> true
          | _, payload -> (
              let r = Stream.reader () in
              let total = String.length payload in
              let rec go pos =
                if pos < total then begin
                  let len = min chunk (total - pos) in
                  ignore (Stream.feed r ~pos ~len payload (fun _ ~pos:_ -> ()));
                  go (pos + len)
                end
              in
              match go 0 with () | (exception Stream.Framing _) -> true)))

(* ---- trace ops into the reference detector ---------------------- *)

let test_reference_lifecycle () =
  let layout = Gen.layout in
  let r = Barracuda.Reference.create ~layout () in
  let loc = Gtrace.Loc.global 0x100 in
  Barracuda.Reference.run r
    [
      Gtrace.Op.Wr { tid = 0; loc; value = 1L };
      Gtrace.Op.Endi { warp = 0; mask = 1 };
    ];
  Alcotest.(check bool) "no race yet" false
    (Report.has_race (Barracuda.Reference.report r));
  Barracuda.Reference.run r
    [
      Gtrace.Op.Wr { tid = 9; loc; value = 2L };
      Gtrace.Op.Endi { warp = 2; mask = 2 };
    ];
  Alcotest.(check bool) "verdict-so-far sees the race" true
    (Report.has_race (Barracuda.Reference.report r))

(* ---- scheduler session seats ------------------------------------- *)

let scheduler_config =
  {
    Service.Scheduler.default_config with
    Service.Scheduler.workers = 2;
    session_seats = 2;
  }

let idle_exec ~job:_ _sub = Service.Protocol.Error "unused"

let test_seats_bounded () =
  let t = Service.Scheduler.create ~config:scheduler_config ~exec:idle_exec () in
  Fun.protect
    ~finally:(fun () -> Service.Scheduler.stop t)
    (fun () ->
      match
        ( Service.Scheduler.session_open t,
          Service.Scheduler.session_open t,
          Service.Scheduler.session_open t )
      with
      | Some a, Some b, None ->
          Alcotest.(check int) "both seats open" 2
            (Service.Scheduler.sessions t).Service.Protocol.occupied;
          (* session compute really runs on the seat's own domain *)
          let here = (Domain.self () :> int) in
          let seat_dom =
            Service.Scheduler.session_call a (fun () ->
                (Domain.self () :> int))
          in
          Alcotest.(check bool) "call ran on the seat domain" true
            (seat_dom <> here);
          (* exceptions cross the rendezvous *)
          (match
             Service.Scheduler.session_call b (fun () -> failwith "boom")
           with
          | _ -> Alcotest.fail "expected the closure's exception"
          | exception Failure m -> Alcotest.(check string) "verbatim" "boom" m);
          Service.Scheduler.session_close t a;
          Alcotest.(check bool) "freed seat is reusable" true
            (Service.Scheduler.session_open t <> None);
          Alcotest.(check int) "opened total counts every claim" 3
            (Service.Scheduler.sessions t).Service.Protocol.opened
      | _ -> Alcotest.fail "expected exactly 2 seats")

(* Satellite: stop must zero EVERY scheduler-owned gauge — busy-worker
   and session gauges included, not just queue depth. *)
let test_stop_zeroes_all_gauges () =
  let was_enabled = Telemetry.Registry.enabled () in
  Telemetry.Registry.set_enabled true;
  Telemetry.Registry.reset Telemetry.Registry.default;
  Fun.protect ~finally:(fun () -> Telemetry.Registry.set_enabled was_enabled)
  @@ fun () ->
  let slow ~job:_ _sub =
    Unix.sleepf 0.05;
    Service.Protocol.Error "unused"
  in
  let t = Service.Scheduler.create ~config:scheduler_config ~exec:slow () in
  (* make every gauge nonzero: busy workers, queue depth, open session *)
  let sub = Service.Protocol.submit_defaults ~kind:Service.Protocol.Check "" in
  for _ = 1 to 6 do
    Service.Scheduler.submit t sub ~reply:(fun _ -> ())
  done;
  (match Service.Scheduler.session_open t with
  | Some _ -> ()
  | None -> Alcotest.fail "no free seat");
  Alcotest.(check bool) "a session is open" true
    (Telemetry.Registry.find_gauge Telemetry.Registry.default
       "barracuda_service_open_sessions"
    > 0);
  (* stop without closing the session: the gauges must still be
     pinned to zero afterwards *)
  Service.Scheduler.stop t;
  List.iter
    (fun name ->
      Alcotest.(check int) (name ^ " zero after stop") 0
        (Telemetry.Registry.find_gauge Telemetry.Registry.default name))
    [
      "barracuda_service_queue_depth";
      "barracuda_service_busy_workers";
      "barracuda_service_open_sessions";
    ]

(* A cell is the one unit from a chunk's bytes to the detector, values
   included: a session fed one chunk of [n] converged 32-lane store
   cells allocates nothing per cell, so [n = 64] and [n = 1024] cost
   the same minor-heap words, within 64. *)
let test_streamed_cells_no_alloc () =
  Telemetry.Registry.set_enabled false;
  let layout =
    Vclock.Layout.make ~warp_size:32 ~threads_per_block:32 ~blocks:1
  in
  let b = Ptx.Builder.create ~params:[ "p" ] "cells" in
  let a = Ptx.Builder.fresh_reg b in
  Ptx.Builder.mad b a (Ptx.Ast.Sreg Ptx.Ast.Tid) (Ptx.Builder.imm 4)
    (Ptx.Builder.sym "p");
  Ptx.Builder.st b (Ptx.Builder.reg a) (Ptx.Ast.Sreg Ptx.Ast.Tid);
  let kernel = Ptx.Builder.finish b in
  let _, records, recording =
    oneshot ~layout kernel (fun m ->
        [| Int64.of_int (Simt.Machine.alloc_global m 128) |])
  in
  let cell = Stream.cell_size ~nvalues:32 in
  Alcotest.(check int) "one store cell with 32 values" cell
    (String.length recording);
  Alcotest.(check int) "one record" 1 records;
  let words n =
    let chunk = Bytes.create (n * cell) in
    for i = 0 to n - 1 do
      Bytes.blit_string recording 0 chunk (i * cell) cell;
      Barracuda.Wire.seal chunk ~pos:(i * cell) ~seq:i
    done;
    let chunk = Bytes.to_string chunk in
    let st = Session.open_stream ~layout kernel in
    let before = Gc.minor_words () in
    Session.feed_chunk st chunk;
    let after = Gc.minor_words () in
    let p = Session.close_stream st in
    Alcotest.(check int) "every cell accepted" n p.Session.p_records;
    Alcotest.(check bool) "race free, undegraded" false
      (p.Session.p_has_race || p.Session.p_degraded);
    after -. before
  in
  let small = words 64 and large = words 1024 in
  Alcotest.(check bool)
    (Printf.sprintf "64 cells: %.0f words, 1024 cells: %.0f words" small large)
    true
    (Float.abs (large -. small) <= 64.)

(* Reassembly holds four cells whatever the chunk: feeding one 1 MB
   chunk of empty cells puts nothing on the major heap, where a buffer
   grown to fit the chunk takes ~131k words (and stays on the
   session). *)
let test_feed_buffer_bounded () =
  let cell = Stream.cell_size ~nvalues:0 in
  let n = (1 lsl 20) / cell in
  let chunk = String.make (n * cell) '\000' in
  let r = Stream.reader () in
  let cells = ref 0 in
  let major () =
    let _, _, words = Gc.counters () in
    words
  in
  let before = major () in
  let delivered = Stream.feed r chunk (fun _ ~pos:_ -> incr cells) in
  let after = major () in
  Alcotest.(check int) "every cell delivered" n delivered;
  Alcotest.(check int) "one callback per cell" n !cells;
  Alcotest.(check int) "nothing pending" 0 (Stream.pending r);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f major-heap words" (after -. before))
    true
    (after -. before < 1024.)

let suite =
  [
    Gen.to_alcotest prop_chunk_invariance;
    Alcotest.test_case "awkward chunk sizes, serial and sharded" `Quick
      test_awkward_chunk_sizes;
    Alcotest.test_case "bugsuite streaming parity (serial + 4 shards)" `Quick
      test_bugsuite_streaming_parity;
    Alcotest.test_case "corrupt record absorbed and counted" `Quick
      test_corrupt_record_counted;
    Alcotest.test_case "degraded streams count alike on every backend" `Quick
      test_degraded_counts_alike;
    Alcotest.test_case "framing corruption raises" `Quick test_framing_is_loud;
    Alcotest.test_case "streamed cells allocate nothing" `Quick
      test_streamed_cells_no_alloc;
    Alcotest.test_case "stream file round-trip" `Quick
      test_stream_file_roundtrip;
    Alcotest.test_case "bad stream header rejected" `Quick
      test_bad_header_rejected;
    Alcotest.test_case "bad stream files rejected" `Quick
      test_bad_stream_files_rejected;
    Alcotest.test_case "reference detector lifecycle" `Quick
      test_reference_lifecycle;
    Alcotest.test_case "session seats are bounded and reusable" `Quick
      test_seats_bounded;
    Alcotest.test_case "stop zeroes every scheduler gauge" `Quick
      test_stop_zeroes_all_gauges;
    Gen.to_alcotest prop_mutated_stream_files;
    Alcotest.test_case "a 1 MB chunk leaves the buffer at four cells" `Quick
      test_feed_buffer_bounded;
  ]
