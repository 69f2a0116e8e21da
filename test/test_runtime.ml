(* Runtime layer: the record wire format, lock-free queues (including
   under domains), and the session core's wire transport. *)

module Wire = Barracuda.Wire
module Queue = Gpu_runtime.Queue
module Session = Gpu_runtime.Session
module Report = Barracuda.Report

(* ---- Records -------------------------------------------------------- *)

let test_record_wire_size () =
  (* the paper's 272-byte layout plus the 8-byte integrity prefix *)
  Alcotest.(check int) "wire size" 280 Wire.size;
  Alcotest.(check int) "header + 32 lane slots" Wire.size
    (Wire.header_size + (8 * Wire.max_lanes))

let test_record_fence_elided () =
  (* fences and kernel-done are simulator events with no wire record *)
  let b = Ptx.Builder.create ~params:[ "out" ] "fenced" in
  Ptx.Builder.st b (Ptx.Builder.sym "out") (Ptx.Builder.imm 1);
  Ptx.Builder.membar b Ptx.Ast.Gl;
  let k = Ptx.Builder.finish b in
  let m = Simt.Machine.create ~layout:Gen.layout () in
  let args = [| Int64.of_int (Simt.Machine.alloc_global m 64) |] in
  let shipped = ref 0 and fences = ref 0 in
  let tap = function
    | Simt.Event.Fence _ -> incr fences
    | Simt.Event.Kernel_done -> ()
    | _ -> incr shipped
  in
  let r = Session.run_stream ~tap ~machine:m k args in
  Alcotest.(check bool) "the kernel fences" true (!fences > 0);
  Alcotest.(check int) "one record per non-fence event" !shipped
    r.Session.sr_records

(* Arbitrary records (not just ones the simulator produces), written
   at a non-zero offset inside a larger dirty buffer: every [View]
   accessor must read back the field its writer stored. *)
type written =
  | Access of Simt.Event.access_kind * Ptx.Ast.space * int * int array
  | Branch_if of int * int
  | Branch_else
  | Branch_fi
  | Barrier of int
  | Barrier_divergence of int

let gen_record =
  QCheck2.Gen.(
    let gen_kind =
      oneofl
        [
          Simt.Event.Load;
          Simt.Event.Store;
          Simt.Event.Atomic Ptx.Ast.A_add;
          Simt.Event.Atomic Ptx.Ast.A_cas;
          Simt.Event.Atomic Ptx.Ast.A_dec;
        ]
    in
    let gen_mask = int_range 0 0xFFFF in
    let gen_op =
      oneof
        [
          map3
            (fun (kind, space) width addrs -> Access (kind, space, width, addrs))
            (pair gen_kind (oneofl [ Ptx.Ast.Global; Ptx.Ast.Shared ]))
            (oneofl [ 1; 2; 4; 8 ])
            (array_size (return Wire.max_lanes) (int_range 0 0x3FFF_FFFF));
          map2 (fun t e -> Branch_if (t, e)) gen_mask gen_mask;
          return Branch_else;
          return Branch_fi;
          map (fun b -> Barrier b) (int_range 0 0xFFFF);
          map (fun e -> Barrier_divergence e) (int_range 0 0xFFFF);
        ]
    in
    tup4
      (oneof [ return (-1); int_range 0 4096 ])
      (oneof [ return (-1); int_range 0 100_000 ])
      gen_mask gen_op)

let print_record (warp, insn, mask, op) =
  Printf.sprintf "warp=%d insn=%d mask=%#x %s" warp insn mask
    (match op with
    | Access (kind, space, width, _) ->
        Format.asprintf "access opcode=%d %a width=%d" (Wire.opcode_of_kind kind)
          Ptx.Ast.pp_space space width
    | Branch_if (t, e) -> Printf.sprintf "if then=%#x else=%#x" t e
    | Branch_else -> "else"
    | Branch_fi -> "fi"
    | Barrier b -> Printf.sprintf "bar block=%d" b
    | Barrier_divergence e -> Printf.sprintf "bardiv expected=%#x" e)

let prop_view_reads_back_writes =
  QCheck2.Test.make ~name:"Wire.View reads back every written field"
    ~count:500 ~print:print_record gen_record (fun (warp, insn, mask, op) ->
      let pos = Wire.size in
      let buf = Bytes.make (3 * Wire.size) '\xAB' in
      let module V = Wire.View in
      (match op with
      | Access (kind, space, width, addrs) ->
          Wire.write_access buf ~pos ~kind ~space ~width ~mask ~warp ~insn
            ~addrs
      | Branch_if (then_mask, else_mask) ->
          Wire.write_branch_if buf ~pos ~mask ~warp ~insn ~then_mask
            ~else_mask
      | Branch_else -> Wire.write_branch_else buf ~pos ~warp ~insn ~mask
      | Branch_fi -> Wire.write_branch_fi buf ~pos ~warp ~insn ~mask
      | Barrier block -> Wire.write_barrier buf ~pos ~warp ~insn ~mask ~block
      | Barrier_divergence expected ->
          Wire.write_barrier_divergence buf ~pos ~warp ~insn ~mask ~expected);
      V.warp buf ~pos = warp
      && V.insn buf ~pos = insn
      && V.mask buf ~pos = mask
      &&
      match op with
      | Access (kind, space, width, addrs) ->
          V.opcode buf ~pos = Wire.opcode_of_kind kind
          && Wire.space_of_code (V.aux buf ~pos) = space
          && V.width buf ~pos = width
          && Array.for_all Fun.id
               (Array.mapi (fun lane a -> V.addr buf ~pos ~lane = a) addrs)
      | Branch_if (then_mask, else_mask) ->
          V.opcode buf ~pos = Wire.op_branch_if
          && V.then_mask buf ~pos = then_mask
          && V.else_mask buf ~pos = else_mask
      | Branch_else -> V.opcode buf ~pos = Wire.op_branch_else
      | Branch_fi -> V.opcode buf ~pos = Wire.op_branch_fi
      | Barrier block ->
          V.opcode buf ~pos = Wire.op_barrier && V.aux buf ~pos = block
      | Barrier_divergence expected ->
          V.opcode buf ~pos = Wire.op_barrier_divergence
          && V.aux buf ~pos = expected)

(* ---- Queue ----------------------------------------------------------- *)

(* Fill a ring slot with a minimal load record whose warp field carries
   the sequence number [i] (queue tests read it back via the view). *)
let fill_payload i buf off =
  Bytes.fill buf off Wire.size '\000';
  Bytes.set_uint8 buf off Barracuda.Wire.magic;
  Bytes.set_uint8 buf (off + 1) Barracuda.Wire.version;
  Bytes.set_uint8 buf (off + 2) Barracuda.Wire.op_load;
  Bytes.set_uint16_le buf (off + 12) (i land 0xFFFF);
  Bytes.set_uint16_le buf (off + 14) ((i lsr 16) land 0xFFFF)

let seq_of buf off = Wire.View.warp buf ~pos:off

let test_queue_fifo () =
  let q = Queue.create ~capacity:8 in
  for i = 0 to 5 do
    Alcotest.(check bool) "push" true (Queue.push_into q (fill_payload i))
  done;
  Alcotest.(check int) "length" 6 (Queue.length q);
  for i = 0 to 5 do
    match Queue.consume q seq_of with
    | Some v -> Alcotest.(check int) (Printf.sprintf "fifo %d" i) i v
    | None -> Alcotest.fail "consume failed"
  done;
  Alcotest.(check bool) "empty" true (Queue.consume q seq_of = None)

let test_queue_full () =
  let q = Queue.create ~capacity:4 in
  for i = 0 to 3 do
    Alcotest.(check bool) "fills" true (Queue.push_into q (fill_payload i))
  done;
  Alcotest.(check bool) "rejects when full" false
    (Queue.push_into q (fill_payload 4));
  ignore (Queue.consume q seq_of);
  Alcotest.(check bool) "space after release" true
    (Queue.push_into q (fill_payload 4));
  Alcotest.(check int) "wraparound accounting" 5 (Queue.pushed q);
  Alcotest.(check int) "high watermark" 4 (Queue.high_watermark q)

let test_queue_inplace_protocol () =
  (* raw reserve/commit/peek/release: the slot peeked is stable until
     released, and offsets wrap around the flat ring *)
  let q = Queue.create ~capacity:2 in
  let w0 = Queue.try_reserve q in
  Alcotest.(check int) "first reservation" 0 w0;
  Alcotest.(check int) "peek before commit" (-1) (Queue.peek q);
  fill_payload 7 (Queue.buffer q) (Queue.offset_of q w0);
  Queue.commit q w0;
  let off = Queue.peek q in
  Alcotest.(check int) "slot offset" (Queue.offset_of q w0) off;
  Alcotest.(check int) "peek is stable" off (Queue.peek q);
  Alcotest.(check int) "payload in place" 7 (seq_of (Queue.buffer q) off);
  Queue.release q;
  Alcotest.(check int) "empty after release" (-1) (Queue.peek q);
  (* wraparound: virtual index 2 lands on slot 0 *)
  ignore (Queue.push_into q (fill_payload 1));
  ignore (Queue.consume q seq_of);
  let w2 = Queue.try_reserve q in
  Alcotest.(check int) "third reservation" 2 w2;
  Alcotest.(check int) "wraps to slot 0" 0 (Queue.offset_of q w2);
  Queue.commit q w2

let test_queue_domains () =
  (* one producer domain, one consumer domain, 10k records *)
  let q = Queue.create ~capacity:64 in
  let n = 10_000 in
  let producer =
    Domain.spawn (fun () ->
        for i = 0 to n - 1 do
          while not (Queue.push_into q (fill_payload i)) do
            Domain.cpu_relax ()
          done
        done)
  in
  let seen = ref 0 in
  let in_order = ref true in
  while !seen < n do
    match Queue.consume q seq_of with
    | Some v ->
        if v <> !seen then in_order := false;
        incr seen
    | None -> Domain.cpu_relax ()
  done;
  Domain.join producer;
  Alcotest.(check bool) "all records in order across domains" true !in_order

(* ---- Steady-state allocation ---------------------------------------- *)

let test_steady_state_allocation () =
  (* The record hot path — serialize into a ring slot, commit, feed the
     detector in place, release — must not allocate in steady state on
     a converged workload.  Bound: < 8 minor-heap words per record
     (zero in practice; the slack absorbs incidental boxing if the
     compiler changes). *)
  Telemetry.Registry.set_enabled false;
  let layout = Gen.layout in
  let wsz = layout.Vclock.Layout.warp_size in
  let k = Gen.kernel_of_program [ Gen.Global_store (0, Gen.Const 1) ] in
  let det = Barracuda.Detector.create ~layout (Static.Plan.of_kernel k) in
  let q = Queue.create ~capacity:64 in
  let buf = Queue.buffer q in
  let addrs = Array.init wsz (fun i -> 4 * i) in
  let mask = (1 lsl wsz) - 1 in
  let pump n =
    for _ = 1 to n do
      let w = Queue.try_reserve q in
      let pos = Queue.offset_of q w in
      Barracuda.Wire.write_access buf ~pos ~kind:Simt.Event.Store
        ~space:Ptx.Ast.Global ~width:4 ~mask ~warp:0 ~insn:0 ~addrs;
      Barracuda.Wire.seal buf ~pos ~seq:w;
      Queue.commit q w;
      let off = Queue.peek q in
      Barracuda.Detector.feed_record det buf ~pos:off;
      Queue.release q
    done
  in
  pump 512 (* warm up: shadow pages, table growth, lazy telemetry handles *);
  let n = 20_000 in
  let before = Gc.minor_words () in
  pump n;
  let after = Gc.minor_words () in
  let per_record = (after -. before) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "steady-state allocation (%.2f words/record) < 8"
       per_record)
    true
    (per_record < 8.0)

(* ---- Session.run_stream ------------------------------------------- *)

(* Weaker cross-run property that survives schedule perturbation: a
   race-free program stays race-free with the deployed instrumentation
   (block + static pruning), which only ever drops records. *)
let prop_pipeline_no_false_positives =
  QCheck2.Test.make
    ~name:"pipeline never invents races on programs the detector clears"
    ~count:100 ~print:Gen.print_program Gen.gen_program (fun prog ->
      let k = Gen.kernel_of_program prog in
      let m1 = Simt.Machine.create ~layout:Gen.layout () in
      let args1 = Gen.setup m1 in
      let r1 = Session.run_stream ~machine:m1 k args1 in
      if Report.has_race r1.Session.sr_report then
        QCheck2.assume_fail ()
      else begin
        let m2 = Simt.Machine.create ~layout:Gen.layout () in
        let args2 = Gen.setup m2 in
        let r =
          Session.run_stream ~detector:Gen.detector_config
            ~inst:(Instrument.Pass.instrument ~layout:Gen.layout k)
            ~machine:m2 k args2
        in
        not (Report.has_race r.Session.sr_report)
      end)

let test_pipeline_instrumented_execution_correct () =
  (* the instrumented kernel must compute the same results *)
  let prog = [ Gen.Store_own_slot ] in
  let k = Gen.kernel_of_program prog in
  let m1 = Simt.Machine.create ~layout:Gen.layout () in
  let args1 = Gen.setup m1 in
  let _ = Simt.Machine.launch m1 k args1 in
  let m2 = Simt.Machine.create ~layout:Gen.layout () in
  let args2 = Gen.setup m2 in
  let _ =
    Session.run_stream
      ~inst:(Instrument.Pass.instrument ~layout:Gen.layout k)
      ~machine:m2 k args2
  in
  let base1 = Int64.to_int args1.(0) and base2 = Int64.to_int args2.(0) in
  let total = Vclock.Layout.total_threads Gen.layout in
  let own_base = 4 * (Gen.words + Gen.sync_words) in
  for t = 0 to total - 1 do
    let addr1 = base1 + own_base + (4 * t) in
    let addr2 = base2 + own_base + (4 * t) in
    Alcotest.(check int64)
      (Printf.sprintf "slot %d" t)
      (Simt.Machine.peek m1 ~addr:addr1 ~width:4)
      (Simt.Machine.peek m2 ~addr:addr2 ~width:4)
  done

let suite =
  [
    Alcotest.test_case "record wire size" `Quick test_record_wire_size;
    Alcotest.test_case "record fence elided" `Quick test_record_fence_elided;
    Alcotest.test_case "queue fifo" `Quick test_queue_fifo;
    Alcotest.test_case "queue full/wrap" `Quick test_queue_full;
    Alcotest.test_case "queue in-place protocol" `Quick
      test_queue_inplace_protocol;
    Alcotest.test_case "queue across domains" `Quick test_queue_domains;
    Alcotest.test_case "steady-state allocation bound" `Quick
      test_steady_state_allocation;
    Alcotest.test_case "pipeline preserves results" `Quick
      test_pipeline_instrumented_execution_correct;
  ]
  @ List.map Gen.to_alcotest
      [ prop_view_reads_back_writes; prop_pipeline_no_false_positives ]
