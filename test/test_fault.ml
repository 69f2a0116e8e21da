(* Fault injection and resilience: transport integrity (checksums,
   sequence numbers), seeded fault plans through the serial sink, worker
   crash recovery and quarantine in the scheduler, wall-clock
   deadlines, versioned formats, and campaign determinism. *)

module Wire = Barracuda.Wire
module Report = Barracuda.Report
module Detector = Barracuda.Detector
module Plan = Fault.Plan
module P = Service.Protocol
module Case = Bugsuite.Case

let ws = Gen.layout.Vclock.Layout.warp_size

let sealed_access ?(mask = (1 lsl ws) - 1) ?(warp = 0) ?(insn = 0) ?(seq = 0)
    () =
  let buf = Bytes.make Wire.size '\000' in
  let addrs = Array.init ws (fun i -> 4 * i) in
  Wire.write_access buf ~pos:0 ~kind:Simt.Event.Store ~space:Ptx.Ast.Global
    ~width:4 ~mask ~warp ~insn ~addrs;
  Wire.seal buf ~pos:0 ~seq;
  buf

(* ---- seal / check ------------------------------------------------ *)

let test_seal_check () =
  let buf = sealed_access () in
  Alcotest.(check bool) "sealed record is intact" true
    (Wire.check buf ~pos:0 = Wire.Intact);
  let b = Bytes.copy buf in
  Bytes.set_uint8 b 0 0x42;
  Alcotest.(check bool) "magic" true (Wire.check b ~pos:0 = Wire.Bad_magic);
  let b = Bytes.copy buf in
  Bytes.set_uint8 b 1 (Wire.version + 1);
  Alcotest.(check bool) "version" true
    (Wire.check b ~pos:0 = Wire.Bad_version);
  let b = Bytes.copy buf in
  Bytes.set_uint8 b 30 (Bytes.get_uint8 b 30 lxor 1);
  Alcotest.(check bool) "payload corruption" true
    (Wire.check b ~pos:0 = Wire.Bad_checksum)

(* The checksum one 16-bit chunk per step, as first specified: the
   fold [Wire.checksum_at] speeds up must give the same value. *)
let reference_checksum b ~pos =
  let n = Wire.covered_bytes b ~pos in
  let rotl62 x r = ((x lsl r) land max_int) lor (x lsr (62 - r)) in
  let rec sum i stop r acc =
    if i >= stop then acc
    else
      sum (i + 2) stop
        (if r >= 46 then r - 46 else r + 16)
        (acc lxor rotl62 (Bytes.get_uint16_ne b i) r)
  in
  let h = n * 0x9E3779B1 in
  let acc = (h lxor (h lsr 17)) land max_int in
  let acc = sum pos (pos + 6) 3 acc in
  let acc = sum (pos + 8) (pos + Wire.header_size) 23 acc in
  let acc =
    sum (pos + Wire.header_size) (pos + Wire.header_size + n) 9 acc
  in
  let acc = acc lxor (acc lsr 32) in
  let acc = acc lxor (acc lsr 16) in
  acc land 0xFFFF

let opcodes =
  List.init (Wire.op_atomic_last - Wire.op_load + 1) (fun i -> Wire.op_load + i)
  @ Wire.
      [
        op_branch_if;
        op_branch_else;
        op_branch_fi;
        op_barrier;
        op_barrier_divergence;
      ]

(* A record of random bytes with the given opcode and mask at [pos],
   in a buffer that ends [slack] bytes after its covered region. *)
let random_record ~seed ~opcode ~mask ~pos ~slack =
  let rng = Random.State.make [| seed |] in
  let scratch = Bytes.init Wire.size (fun _ -> Char.chr (Random.State.int rng 256)) in
  Bytes.set_uint8 scratch 2 opcode;
  Bytes.set_int32_le scratch 8 (Int32.of_int mask);
  let n = Wire.header_size + Wire.covered_bytes scratch ~pos:0 in
  let b = Bytes.make (pos + n + slack) '\255' in
  Bytes.blit scratch 0 b pos n;
  b

let prop_checksum_matches_reference =
  QCheck2.Test.make ~name:"checksum equals the 16-bit reference fold"
    ~count:1000
    QCheck2.Gen.(
      tup5 (int_range 0 (List.length opcodes - 1)) (int_range 0 0xFFFFFFFF)
        (int_range 0 40) (int_range 0 9) (int_range 0 1_000_000))
    (fun (op, mask, pos, slack, seed) ->
      let b =
        random_record ~seed ~opcode:(List.nth opcodes op) ~mask ~pos ~slack
      in
      Wire.checksum_at b ~pos = reference_checksum b ~pos)

let test_checksum_pinned () =
  (* Each opcode and width of mask, the covered region ending at the
     buffer's last byte, where the fold cannot load past it. *)
  List.iter
    (fun opcode ->
      List.iter
        (fun mask ->
          let b = random_record ~seed:mask ~opcode ~mask ~pos:5 ~slack:0 in
          Alcotest.(check int)
            (Printf.sprintf "opcode %d mask %#x ends the buffer" opcode mask)
            (reference_checksum b ~pos:5) (Wire.checksum_at b ~pos:5))
        [ 0; 1; 0x5; 0xFF; 0x8000_0000; 0xFFFF_FFFF ])
    opcodes;
  (* Sealed records whose checksums were computed by the 16-bit fold:
     recorded streams must keep verifying. *)
  let b1 = Bytes.make Wire.size '\000' in
  Wire.write_access b1 ~pos:0 ~kind:Simt.Event.Store ~space:Ptx.Ast.Global
    ~width:4 ~mask:0xFFFFFFFF ~warp:3 ~insn:5
    ~addrs:(Array.init 32 (fun i -> 0x1000 + (4 * i)));
  Wire.seal b1 ~pos:0 ~seq:7;
  let b2 = Bytes.make Wire.size '\000' in
  Wire.write_branch_if b2 ~pos:0 ~mask:0xF0F0 ~warp:1 ~insn:9
    ~then_mask:0xF000 ~else_mask:0x00F0;
  Wire.seal b2 ~pos:0 ~seq:42;
  let b3 = Bytes.make (3 + Wire.size) '\000' in
  Wire.write_access b3 ~pos:3 ~kind:(Simt.Event.Atomic Ptx.Ast.A_add)
    ~space:Ptx.Ast.Shared ~width:8 ~mask:0x5 ~warp:12 ~insn:77
    ~addrs:(Array.init 32 (fun i -> 0x40 + (8 * i)));
  Wire.seal b3 ~pos:3 ~seq:0xFFFFFFFF;
  Alcotest.(check (list int)) "pinned checksums" [ 0xeef; 0x7bbf; 0x273 ]
    [
      Bytes.get_uint16_le b1 6; Bytes.get_uint16_le b2 6; Bytes.get_uint16_le b3 9;
    ];
  Alcotest.(check bool) "and they verify" true
    (Wire.check b1 ~pos:0 = Wire.Intact
    && Wire.check b2 ~pos:0 = Wire.Intact
    && Wire.check b3 ~pos:3 = Wire.Intact)

(* Any single bit flip that leaves the covered length unchanged must be
   detected — guaranteed structurally by the rotate-XOR checksum.  The
   length-changing bytes (opcode at 2, mask word at 8-11) reshape the
   checksummed stream, so their detection is probabilistic; they are
   pinned by the deterministic sweeps below instead. *)
let prop_single_bit_flip_detected =
  QCheck2.Test.make ~name:"single bit flip in covered region is detected"
    ~count:500
    QCheck2.Gen.(
      tup4 (int_range 1 0xFFFF) (int_range 0 4096) (int_range 0 100_000)
        (pair (int_range 0 0xFFFFFF) (int_range 0 7)))
    (fun (mask, warp, insn, (byte_r, bit)) ->
      let buf = sealed_access ~mask ~warp ~insn ~seq:7 () in
      let covered = Wire.covered_bytes buf ~pos:0 in
      let eligible =
        [ 0; 1; 3; 4; 5; 6; 7 ]
        @ List.init 12 (fun i -> 12 + i)
        @ List.init covered (fun i -> Wire.header_size + i)
      in
      let byte = List.nth eligible (byte_r mod List.length eligible) in
      Bytes.set_uint8 buf byte (Bytes.get_uint8 buf byte lxor (1 lsl bit));
      Wire.check buf ~pos:0 <> Wire.Intact)

let test_mask_bit_flips_detected () =
  (* Mask flips can change the covered-region length itself; the
     avalanched length prefix in the checksum stream catches them.
     Deterministic sweep over all 32 mask bits of a fixed record. *)
  for bit = 0 to 31 do
    let buf = sealed_access ~mask:0x00FF ~seq:1 () in
    let byte = 8 + (bit / 8) in
    Bytes.set_uint8 buf byte (Bytes.get_uint8 buf byte lxor (1 lsl (bit mod 8)));
    Alcotest.(check bool)
      (Printf.sprintf "mask bit %d flip detected" bit)
      true
      (Wire.check buf ~pos:0 <> Wire.Intact)
  done

let test_opcode_bit_flips_detected () =
  (* The opcode also drives the covered length (access vs control);
     sweep all 8 opcode bits of a fixed record. *)
  for bit = 0 to 7 do
    let buf = sealed_access ~seq:1 () in
    Bytes.set_uint8 buf 2 (Bytes.get_uint8 buf 2 lxor (1 lsl bit));
    Alcotest.(check bool)
      (Printf.sprintf "opcode bit %d flip detected" bit)
      true
      (Wire.check buf ~pos:0 <> Wire.Intact)
  done

(* ---- sequence accounting ----------------------------------------- *)

let mk_program = [ Gen.Global_store (0, Gen.Const 1) ]

let mk_detector () =
  Detector.create ~layout:Gen.layout
    (Static.Plan.of_kernel (Gen.kernel_of_program mk_program))

let test_seq_gap_stale_corrupt () =
  let det = mk_detector () in
  let feed ~seq =
    let buf = sealed_access ~seq () in
    Detector.feed_record det buf ~pos:0
  in
  feed ~seq:0;
  let i = Report.integrity (Detector.report det) in
  Alcotest.(check bool) "clean start" true
    (i.Report.corrupt = 0 && i.Report.gaps = 0 && i.Report.stale = 0);
  Alcotest.(check bool) "not degraded yet" false
    (Report.degraded (Detector.report det));
  feed ~seq:5;
  (* expected 1, got 5: four records lost *)
  let i = Report.integrity (Detector.report det) in
  Alcotest.(check int) "gap of four" 4 i.Report.gaps;
  feed ~seq:5;
  (* replayed: stale, skipped *)
  let i = Report.integrity (Detector.report det) in
  Alcotest.(check int) "stale duplicate" 1 i.Report.stale;
  let buf = sealed_access ~seq:6 () in
  Bytes.set_uint8 buf 40 (Bytes.get_uint8 buf 40 lxor 4);
  Detector.feed_record det buf ~pos:0;
  let i = Report.integrity (Detector.report det) in
  Alcotest.(check int) "corrupt record" 1 i.Report.corrupt;
  Alcotest.(check bool) "degraded" true (Report.degraded (Detector.report det));
  (* intact, in sequence, but naming an instruction past the kernel or
     a warp past the layout: corrupt, skipped, not raised *)
  let insns = Array.length (Gen.kernel_of_program mk_program).Ptx.Ast.body in
  let warps = Vclock.Layout.total_warps Gen.layout in
  let buf = sealed_access ~insn:insns ~seq:6 () in
  Detector.feed_record det buf ~pos:0;
  let i = Report.integrity (Detector.report det) in
  Alcotest.(check int) "insn past the kernel" 2 i.Report.corrupt;
  let buf = sealed_access ~warp:warps ~seq:7 () in
  Detector.feed_record det buf ~pos:0;
  let i = Report.integrity (Detector.report det) in
  Alcotest.(check int) "warp past the layout" 3 i.Report.corrupt;
  Alcotest.(check bool) "in sequence: no new gap or stale" true
    (i.Report.gaps = 4 && i.Report.stale = 1)

(* The value count lies outside the checksum, so the detector bounds
   it: a count above 32, or values running past the end of the buffer,
   make the cell corrupt, skipped without reading out of bounds, and a
   buffer that ends with the record is a cell with no values. *)
let test_value_count_bounded () =
  let cell ~len ~count =
    let b = Bytes.make len '\000' in
    Bytes.blit (sealed_access ()) 0 b 0 Wire.size;
    if len > Wire.size then Bytes.set_uint16_le b Wire.size count;
    b
  in
  List.iter
    (fun (label, buf, corrupt, checks) ->
      let det = mk_detector () in
      Detector.feed_record det buf ~pos:0;
      let i = Report.integrity (Detector.report det) in
      Alcotest.(check (pair int int))
        (label ^ ": corrupt, checks") (corrupt, checks)
        (i.Report.corrupt, (Detector.stats det).Detector.accesses_checked))
    [
      ("count 33", cell ~len:(Wire.cell_size ~nvalues:33) ~count:33, 1, 0);
      ("values overrun a 300-byte buffer", cell ~len:300 ~count:3, 1, 0);
      ("bare 280-byte store", cell ~len:Wire.size ~count:0, 0, ws);
    ]

let test_orphaned_fi_absorbed () =
  (* a branch_fi whose branch_if was lost upstream must be skipped and
     accounted, not pop the root reconvergence frame or raise *)
  let det = mk_detector () in
  let buf = Bytes.make Wire.size '\000' in
  Wire.write_branch_fi buf ~pos:0 ~warp:0 ~insn:0 ~mask:((1 lsl ws) - 1);
  Wire.seal buf ~pos:0 ~seq:0;
  Detector.feed_record det buf ~pos:0;
  let i = Report.integrity (Detector.report det) in
  Alcotest.(check int) "desync counted" 1 i.Report.desync;
  Alcotest.(check bool) "degraded" true (Report.degraded (Detector.report det))

(* ---- transport faults through the serial sink --------------------- *)

let racy_prog = [ Gen.Global_store (0, Gen.Lane_dependent); Gen.Global_load 0 ]

let run_with_plan ?(prog = racy_prog) plan =
  let k = Gen.kernel_of_program prog in
  let m = Simt.Machine.create ~layout:Gen.layout () in
  let args = Gen.setup m in
  let detector = { Detector.default_config with max_reports = 100_000 } in
  let r =
    Gpu_runtime.Session.run_stream ~detector ~fault:plan ~machine:m k args
  in
  r.Gpu_runtime.Session.sr_report

let test_drop_plan_degrades () =
  let plan = Plan.make { Plan.none with Plan.seed = 7; drop = 0.3 } in
  let report = run_with_plan plan in
  let inj = Plan.injected plan in
  Alcotest.(check bool) "drops injected" true (inj.Plan.drops > 0);
  Alcotest.(check bool) "losses surfaced as gaps" true
    ((Report.integrity report).Report.gaps > 0);
  Alcotest.(check bool) "degraded" true (Report.degraded report)

let test_duplicate_plan_degrades () =
  let plan = Plan.make { Plan.none with Plan.seed = 8; duplicate = 0.4 } in
  let report = run_with_plan plan in
  let inj = Plan.injected plan in
  Alcotest.(check bool) "dups injected" true (inj.Plan.dups > 0);
  Alcotest.(check bool) "dups surfaced as stale" true
    ((Report.integrity report).Report.stale > 0)

let test_delay_plan_degrades () =
  let plan =
    Plan.make { Plan.none with Plan.seed = 19; delay = 0.4; delay_hold = 2 }
  in
  let report = run_with_plan plan in
  let inj = Plan.injected plan in
  Alcotest.(check bool) "delays injected" true (inj.Plan.delays > 0);
  let i = Report.integrity report in
  Alcotest.(check bool) "reorder surfaced" true
    (i.Report.gaps > 0 && i.Report.stale > 0);
  Alcotest.(check bool) "degraded" true (Report.degraded report)

let test_flip_plan_never_silent () =
  (* bit flips may land on uncovered (stale-lane) bytes and stay
     harmless, but a verdict change without the degraded flag is the
     one forbidden outcome *)
  let baseline = Report.has_race (run_with_plan (Plan.make Plan.none)) in
  let plan = Plan.make { Plan.none with Plan.seed = 10; bit_flip = 0.5 } in
  let report = run_with_plan plan in
  let inj = Plan.injected plan in
  Alcotest.(check bool) "flips injected" true (inj.Plan.flips > 0);
  Alcotest.(check bool) "no silent wrong verdict" true
    (Bool.equal (Report.has_race report) baseline || Report.degraded report)

let test_fault_plan_deterministic () =
  let run seed =
    let plan =
      Plan.make
        { Plan.none with Plan.seed; bit_flip = 0.1; drop = 0.1; duplicate = 0.1 }
    in
    let report = run_with_plan plan in
    let i = Report.integrity report in
    (Plan.injected plan, i.Report.corrupt, i.Report.gaps, i.Report.stale)
  in
  Alcotest.(check bool) "same seed, same injections" true (run 3 = run 3);
  Alcotest.(check bool) "different seed, different stream" true
    (run 3 <> run 4)

(* ---- machine faults ---------------------------------------------- *)

let test_machine_faults_applied () =
  let plan =
    Plan.make
      { Plan.none with Plan.seed = 5; reg_flips = 8; fault_window = 8 }
  in
  (* A flip needs a live register in the chosen warp.  The kernel runs
     uninstrumented, so the leading load is what defines one inside the
     8-step fault window. *)
  let report = run_with_plan ~prog:(Gen.Global_load 1 :: racy_prog) plan in
  ignore (Report.has_race report);
  let inj = Plan.injected plan in
  Alcotest.(check bool) "register flips applied" true
    (inj.Plan.reg_flips_applied > 0 && inj.Plan.reg_flips_applied <= 8)

(* ---- wall-clock deadline ----------------------------------------- *)

let test_deadline_stops_spin () =
  let b = Ptx.Builder.create ~params:[ "out" ] "spin" in
  let l = Ptx.Builder.fresh_label b in
  Ptx.Builder.place_label b l;
  Ptx.Builder.bra ~uni:true b l;
  let k = Ptx.Builder.finish b in
  let m = Simt.Machine.create ~layout:Gen.layout () in
  let base = Simt.Machine.alloc_global m 16 in
  let deadline_ns = Int64.add (Telemetry.Clock.now_ns ()) 50_000_000L in
  let r =
    Simt.Machine.launch ~max_steps:max_int ~deadline_ns m k
      [| Int64.of_int base |]
  in
  match r.Simt.Machine.status with
  | Simt.Machine.Deadline _ -> ()
  | Simt.Machine.Completed -> Alcotest.fail "spin completed?!"
  | Simt.Machine.Max_steps _ -> Alcotest.fail "step budget hit first"

(* ---- worker crash recovery --------------------------------------- *)

let oneshot_verdict case = fst (Campaign.Trial.pipeline_verdict case)

let scheduler_with_cases ~plan cases =
  let by_name = Hashtbl.create 16 in
  List.iter (fun (c : Case.t) -> Hashtbl.replace by_name c.Case.name c) cases;
  let exec ~job (sub : P.submit) =
    match Hashtbl.find_opt by_name sub.P.payload with
    | None -> P.Failed { job; code = "bad_request"; message = "no such case" }
    | Some case ->
        let race = oneshot_verdict case in
        P.Result
          {
            job;
            outcome =
              {
                P.default_outcome with
                P.verdict = (if race then P.Racy else P.Race_free);
              };
            queue_ms = 0.0;
            run_ms = 0.0;
          }
  in
  Service.Scheduler.create
    ~config:
      {
        Service.Scheduler.default_config with
        Service.Scheduler.workers = 2;
        fault = Some plan;
      }
    ~exec ()

let submit_and_collect sched (cases : Case.t list) =
  let n = List.length cases in
  let lock = Mutex.create () in
  let replies = Array.make n None in
  List.iteri
    (fun i (c : Case.t) ->
      Service.Scheduler.submit sched
        (P.submit_defaults ~kind:P.Check c.Case.name) ~reply:(fun resp ->
          Mutex.lock lock;
          replies.(i) <- Some resp;
          Mutex.unlock lock))
    cases;
  Service.Scheduler.stop sched;
  replies

(* After [stop], the crash path has settled every job once: the one
   tenant submitted and completed them all, and nothing is queued or
   on a worker. *)
let check_settled sched ~jobs =
  (match Service.Scheduler.tenant_status sched with
  | [ tn ] ->
      Alcotest.(check (pair int int))
        "tenant submitted, completed" (jobs, jobs)
        (tn.P.t_submitted, tn.P.t_completed);
      Alcotest.(check (pair int int))
        "tenant inflight, queued" (0, 0)
        (tn.P.t_inflight, tn.P.t_queued)
  | ts -> Alcotest.failf "expected one tenant, got %d" (List.length ts));
  Alcotest.(check (pair int int))
    "scheduler busy, depth" (0, 0)
    (Service.Scheduler.busy sched, Service.Scheduler.depth sched)

let test_crash_recovery_parity () =
  (* jobs 1 and 3 kill their worker at pickup; the worker puts the job
     back on its queue and the retried jobs must come back with
     verdicts matching one-shot checking *)
  let cases = List.filteri (fun i _ -> i < 6) Bugsuite.Cases.all in
  let plan =
    Plan.make { Plan.none with Plan.seed = 1; crash_once_jobs = [ 1; 3 ] }
  in
  let sched = scheduler_with_cases ~plan cases in
  let replies = submit_and_collect sched cases in
  List.iteri
    (fun i (c : Case.t) ->
      match replies.(i) with
      | Some (P.Result { outcome; _ }) ->
          Alcotest.(check bool)
            (Printf.sprintf "parity for %s" c.Case.name)
            (oneshot_verdict c)
            (outcome.P.verdict = P.Racy)
      | other ->
          Alcotest.failf "case %s: expected a result, got %s" c.Case.name
            (match other with
            | None -> "no reply"
            | Some r -> P.encode_response r))
    cases;
  let counts = Service.Scheduler.counts sched in
  Alcotest.(check int) "two worker crashes recovered" 2
    counts.Service.Scheduler.workers_restarted;
  Alcotest.(check int) "nothing quarantined" 0
    counts.Service.Scheduler.quarantined;
  Alcotest.(check int) "all jobs completed" (List.length cases)
    counts.Service.Scheduler.completed;
  Alcotest.(check bool) "crashes recorded on the plan" true
    ((Plan.injected plan).Plan.crashes = 2);
  check_settled sched ~jobs:(List.length cases)

let test_poison_quarantine () =
  let cases = [ List.hd Bugsuite.Cases.all ] in
  let plan = Plan.make { Plan.none with Plan.seed = 2; poison_jobs = [ 1 ] } in
  let sched = scheduler_with_cases ~plan cases in
  let replies = submit_and_collect sched cases in
  (match replies.(0) with
  | Some (P.Failed { code; message; _ }) ->
      Alcotest.(check string) "quarantine code" "quarantined" code;
      Alcotest.(check bool) "message mentions quarantine" true
        (String.length message > 0)
  | other ->
      Alcotest.failf "expected quarantine, got %s"
        (match other with
        | None -> "no reply"
        | Some r -> P.encode_response r));
  let counts = Service.Scheduler.counts sched in
  Alcotest.(check int) "one quarantined" 1
    counts.Service.Scheduler.quarantined;
  (* initial attempt + max_job_restarts retries, each crashing a worker *)
  Alcotest.(check int) "three crashes recovered" 3
    counts.Service.Scheduler.workers_restarted;
  Alcotest.(check int) "counted as failed" 1 counts.Service.Scheduler.failed;
  check_settled sched ~jobs:1

(* ---- versioned formats ------------------------------------------- *)

let test_trace_version_rejected () =
  match
    Gtrace.Serialize.of_string
      "# barracuda-trace v9 warp_size=4 threads_per_block=8 blocks=2\n"
  with
  | _ -> Alcotest.fail "stale trace version accepted"
  | exception Gtrace.Serialize.Parse_error { message; _ } ->
      Alcotest.(check bool)
        (Printf.sprintf "names both versions: %s" message)
        true
        (Gen.contains ~needle:"version 9" message)

let test_record_version_rejected () =
  (* a record of another wire version is skipped as corrupt before any
     of its fields is trusted *)
  let det = mk_detector () in
  let buf = sealed_access () in
  Bytes.set_uint8 buf 1 (Wire.version + 1);
  Detector.feed_record det buf ~pos:0;
  let i = Report.integrity (Detector.report det) in
  Alcotest.(check int) "stale version counted corrupt" 1 i.Report.corrupt;
  Alcotest.(check int) "no access checked" 0
    (Detector.stats det).Detector.accesses_checked

(* ---- campaign ----------------------------------------------------- *)

let test_campaign_quick_deterministic () =
  let run () =
    Campaign.run ~config:{ Campaign.seed = 42; quick = true; trials = 1 } ()
  in
  let a = run () and b = run () in
  Alcotest.(check string) "bitwise reproducible" (Campaign.to_json a)
    (Campaign.to_json b);
  Alcotest.(check bool) "no silent corruption, service healed" true
    (Campaign.ok a)

let suite =
  [
    Alcotest.test_case "seal and check" `Quick test_seal_check;
    Alcotest.test_case "checksum pinned" `Quick test_checksum_pinned;
    Alcotest.test_case "mask bit flips detected" `Quick
      test_mask_bit_flips_detected;
    Alcotest.test_case "opcode bit flips detected" `Quick
      test_opcode_bit_flips_detected;
    Alcotest.test_case "seq gap/stale/corrupt accounting" `Quick
      test_seq_gap_stale_corrupt;
    Alcotest.test_case "value count bounded" `Quick test_value_count_bounded;
    Alcotest.test_case "orphaned branch_fi absorbed" `Quick
      test_orphaned_fi_absorbed;
    Alcotest.test_case "drop plan degrades" `Quick test_drop_plan_degrades;
    Alcotest.test_case "duplicate plan degrades" `Quick
      test_duplicate_plan_degrades;
    Alcotest.test_case "delay plan degrades" `Quick test_delay_plan_degrades;
    Alcotest.test_case "flips never silently wrong" `Quick
      test_flip_plan_never_silent;
    Alcotest.test_case "fault plans are seeded" `Quick
      test_fault_plan_deterministic;
    Alcotest.test_case "machine faults applied" `Quick
      test_machine_faults_applied;
    Alcotest.test_case "deadline stops a spin" `Quick test_deadline_stops_spin;
    Alcotest.test_case "crash recovery parity" `Quick
      test_crash_recovery_parity;
    Alcotest.test_case "poison job quarantined" `Quick test_poison_quarantine;
    Alcotest.test_case "trace version rejected" `Quick
      test_trace_version_rejected;
    Alcotest.test_case "record version rejected" `Quick
      test_record_version_rejected;
    Alcotest.test_case "campaign determinism" `Quick
      test_campaign_quick_deterministic;
  ]
  @ List.map Gen.to_alcotest
      [ prop_single_bit_flip_detected; prop_checksum_matches_reference ]
