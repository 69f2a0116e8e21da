(* Entry-point equivalence: BARRACUDA's verdict is one detector's
   answer over one logged trace (§3.3, §4.3), and every way into it
   must agree with [check] — [Session.run_stream], serial,
   uninstrumented, under the kernel's check plan, reports uncapped —
   run once per kernel.  The table at the bottom lists the entry points
   and their kernels; each obligation says what its entry point shares
   with [check].  A failure names the kernel, the entry point and the
   first line that differs. *)

module Session = Gpu_runtime.Session
module Report = Barracuda.Report
module P = Service.Protocol

(* ---- the corpus, and check's run of each kernel ------------------- *)

(* What [check] leaves of a run: its report, the records fed, the cells
   [--record] writes and the trace [--dump-trace] writes. *)
type check = {
  report : Report.t;
  records : int;
  recording : string;
  dump : string;
}

type kind =
  | Workload  (* Table 1 *)
  | Served of bool
      (* the bug suite and the examples, which repair and the campaigns
         serve; whether the author says it diverges at a barrier *)
  | Generated  (* a random program (test/gen.ml) *)

type subject = {
  name : string;
  kind : kind;
  layout : Vclock.Layout.t;
  kernel : Ptx.Ast.kernel;
  setup : Simt.Machine.t -> int64 array;
  submit : P.submit option;  (* as a daemon check job *)
  chunking : int array * int;
      (* chunk sizes, cycled, and a checkpoint every so many chunks *)
  check : check Lazy.t;
}

let lines report = List.map Report.error_to_string (Report.errors report)

let run_check ~name ~layout ~setup kernel =
  let machine = Simt.Machine.create ~layout () in
  let args = setup machine in
  let roles = Static.Plan.roles (Static.Plan.of_kernel kernel) in
  let infer = Gtrace.Infer.create ~layout roles in
  let ops = ref [] in
  let tap ev = ops := List.rev_append (Gtrace.Infer.feed infer ev) !ops in
  let capture = Buffer.create 4096 in
  let r =
    Session.run_stream ~detector:Gen.detector_config ~capture ~tap ~machine
      kernel args
  in
  if r.Session.sr_machine_result.Simt.Machine.status <> Simt.Machine.Completed
  then Alcotest.failf "%s: check did not run to completion" name;
  let dump = Gtrace.Serialize.to_string ~layout (List.rev !ops) in
  let recording = Buffer.contents capture in
  { report = r.Session.sr_report; records = r.sr_records; recording; dump }

(* Chunk sizes straddle the boundaries that matter: single bytes,
   about a record, several cells; a checkpoint every 0 (never) to 5
   chunks. *)
let gen_chunking =
  let open QCheck2.Gen in
  let record = Barracuda.Wire.size and cell = Barracuda.Wire.max_cell_size in
  let size =
    oneof [ int_range 1 8; int_range (record - 4) (record + 4);
            int_range 1 (2 * cell) ]
  in
  let* cuts = array_size (int_range 1 24) size in
  let* every = int_range 0 5 in
  return (cuts, every)

let subject ?submit ?chunking kind name layout kernel setup =
  let rand = Random.State.make [| 34; Hashtbl.hash name |] in
  let seeded = QCheck2.Gen.generate1 ~rand gen_chunking in
  let chunking = Option.value chunking ~default:seeded in
  let check = lazy (run_check ~name ~layout ~setup kernel) in
  { name; kind; layout; kernel; setup; submit; chunking; check }

let check s = Lazy.force s.check

(* The 92 shipped kernels (Table 1 and the bug suite), the predictive
   cases, and every examples/*.ptx as [check FILE] and [submit FILE]
   run it. *)
let corpus =
  let served (c : Bugsuite.Case.t) = Served c.expect_bardiv in
  let case name =
    List.find_opt (fun c -> "c_" ^ c.Bugsuite.Case.name = name)
      Bugsuite.Cases.all
  in
  List.map
    (fun (name, layout, kernel, setup) ->
      let kind = Option.fold ~none:Workload ~some:served (case name) in
      subject kind name layout kernel setup)
    Test_simt.shipped_kernels
  @ List.map
      (fun (c : Bugsuite.Case.t) ->
        subject (served c) ("p_" ^ c.name) c.layout c.kernel c.setup)
      Bugsuite.Cases.predictive
  @ List.map
      (fun (file, text) ->
        let kernel = Ptx.Parser.kernel_of_string text in
        subject ~submit:(P.submit_defaults ~kind:P.Check text)
          (Served (file = "barrier_divergence.ptx"))
          file Service.Exec.default_layout kernel
          (fun m -> Service.Exec.resolve_args m kernel []))
      Example_ptx.all

let served = List.filter (fun s -> s.kind <> Workload) corpus

(* Sixty random programs, each with its own random chunking, drawn at
   a constant seed. *)
let generated =
  let rand = Random.State.make [| 0x5ca1ab1e |] in
  List.init 60 (fun i ->
      let prog, chunking =
        QCheck2.Gen.(generate1 ~rand (pair Gen.gen_program gen_chunking))
      in
      let name = Printf.sprintf "generated program %d" i in
      subject ~chunking Generated name Gen.layout (Gen.kernel_of_program prog)
        Gen.setup)

(* The daemon's kernels: the examples, and each bug-suite case as
   daemon traffic, its printed source at its layout with every
   parameter an [alloc:256] buffer (which check runs too). *)
let daemon_kernels =
  List.map
    (fun (c : Bugsuite.Case.t) ->
      let sub = Test_service.case_sub c in
      let kernel = Ptx.Parser.kernel_of_string sub.P.payload in
      subject ~submit:sub (Served c.expect_bardiv)
        (c.name ^ " (alloc:256 arguments)") c.layout kernel (fun m ->
          Service.Exec.resolve_args m kernel sub.P.args))
    (Bugsuite.Cases.all @ Bugsuite.Cases.predictive)
  @ List.filter (fun s -> s.submit <> None) corpus

(* ---- comparing ---------------------------------------------------- *)

(* Fail unless [got] is [want], naming the kernel, the entry point and
   the first line that differs. *)
let agree s entry want got =
  let rec first i = function
    | w :: ws, g :: gs when w = g -> first (i + 1) (ws, gs)
    | w :: _, g :: _ -> Printf.sprintf "line %d: check %S, here %S" i w g
    | w :: _, [] -> Printf.sprintf "line %d: check %S, here nothing" i w
    | [], g :: _ -> Printf.sprintf "line %d: check nothing, here %S" i g
    | [], [] -> ""
  in
  if want <> got then
    Alcotest.failf "%s, %s: differs at %s" s.name entry (first 1 (want, got))

let verdict racy =
  "verdict " ^ P.verdict_string (if racy then P.Racy else P.Race_free)

let races n = "races " ^ string_of_int n
let bardiv b = "barrier divergence " ^ string_of_bool b
let records n = "records " ^ string_of_int n
let sorted = List.sort compare
let tagged tag l = List.map (( ^ ) tag) (List.sort_uniq compare l)
let per_race tag f errors = tagged tag (List.map f (Gen.race_keys errors))
let keys = per_race "race " (Format.asprintf "%a" Gen.pp_race_key)
let locations = per_race "location " (fun k -> Gtrace.Loc.to_string k.Gen.loc)

(* A build that logs differently interleaves warps differently, so a
   race can be observed in the other order: the unordered pair of
   racing accesses. *)
let pairs =
  per_race "pair " (fun (k : Gen.race_key) ->
      let a = (k.prev_tid, k.prev_kind) and b = (k.cur_tid, k.cur_kind) in
      let (t1, k1), (t2, k2) = (min a b, max a b) in
      Format.asprintf "%a: %a t%d / %a t%d" Gtrace.Loc.pp k.loc Report.pp_kind
        k1 t1 Report.pp_kind k2 t2)

(* Barrier divergences carry no thread pair and do not depend on the
   interleaving. *)
let divergences errors =
  tagged "divergence "
    (List.filter_map
       (function
         | Report.Barrier_divergence _ as e -> Some (Report.error_to_string e)
         | Report.Race _ -> None)
       errors)

let plan s = Static.Plan.of_kernel s.kernel
let every_access s = Static.Plan.empty (plan s)

(* The shard counts [check --shards] runs at: every count on the
   Table 1 workloads, the bug-suite counts on the served kernels. *)
let shard_counts s =
  match s.kind with
  | Workload -> [ 1; 2; 3; 4; 5; 6; 7 ]
  | Served _ -> [ 1; 2; 4; 7 ]
  | Generated -> [ 2 ]

let sharded ?plan s k =
  Shard.Stream.sink ~config:Gen.detector_config ?plan ~layout:s.layout
    ~shards:k s.kernel

(* The errors of a run at [k] shards (0: serially).  [run_stream] is
   deterministic, so a kernel runs once per input: the program it
   executes (instrumented or not), the accesses its plan drops, and
   [k]. *)
let runs = Hashtbl.create 4096

let errors_at ?inst ~plan s k =
  let program =
    Option.map (fun i -> Instrument.Pass.(i.kernel, i.origin, i.logged)) inst
  in
  let key = (s.name, program, Static.Plan.drops plan ~layout:s.layout, k) in
  match Hashtbl.find_opt runs key with
  | Some errors -> errors
  | None ->
      let machine = Simt.Machine.create ~layout:s.layout () in
      let args = s.setup machine in
      let sink = if k = 0 then None else Some (sharded ~plan s k) in
      let errors =
        Report.errors
          (Session.run_stream ~detector:Gen.detector_config ~plan ?sink ?inst
             ~machine s.kernel args)
            .Session.sr_report
      in
      Hashtbl.replace runs key errors;
      errors

let lines_at ?inst ~plan s k =
  List.map Report.error_to_string (errors_at ?inst ~plan s k)

(* ---- the obligations ---------------------------------------------- *)

(* 1. The static tier off: with every access checked, the same error
   lines in the same order, serially and at 4 shards (there, in the
   merge's order under the check plan). *)
let static_off s =
  let every = every_access s in
  agree s "static tier off, serial" (lines (check s).report)
    (lines_at ~plan:every s 0);
  if List.mem 4 (shard_counts s) then
    agree s "static tier off, 4 shards" (lines_at ~plan:(plan s) s 4)
      (lines_at ~plan:every s 4)

(* 2. [Shard.Stream.sink] at the kernel's shard counts: the same lines,
   sorted, for the merge lists races in a canonical order. *)
let shard_sink s =
  let want = sorted (lines (check s).report) in
  List.iter
    (fun k ->
      let entry = Printf.sprintf "Shard.Stream.sink at %d shards" k in
      agree s entry want (sorted (lines_at ~plan:(plan s) s k)))
    (shard_counts s)

(* 3. A streaming session over check's recording.  Serially, in the
   kernel's seeded chunking and in each awkward cut alone (997 bytes
   with a checkpoint every 4 chunks, the others every 3): the same
   lines in the same order and the same record count.  At 4 shards, in
   997-byte cuts (a generated program: in its own chunking), and on
   ww_global_inter_block, the first racy bug-suite case, in each
   awkward cut: the same sorted lines and record count. *)
let cut997 = ([| 997 |], 4)

let awkward =
  cut997
  :: List.map
       (fun cut -> ([| cut |], 3))
       Barracuda.Wire.[ 1; 7; size - 1; size; max_cell_size + 1 ]

let streaming s =
  let c = check s in
  let replay ?sink (cuts, every) order =
    let p =
      Gen.replay ?sink ~layout:s.layout (cuts, every) s.kernel c.recording
    in
    agree s
      (Printf.sprintf "%s stream, cuts [%s], a checkpoint every %d chunks"
         (if sink = None then "serial" else "4-shard")
         (String.concat ";" (Array.to_list (Array.map string_of_int cuts)))
         every)
      (records c.records :: order (lines c.report))
      (records p.Session.p_records
      :: order (List.map Report.error_to_string p.Session.p_errors))
  in
  List.iter (fun chunking -> replay chunking Fun.id) (s.chunking :: awkward);
  List.iter
    (fun chunking -> replay ~sink:(sharded s 4) chunking sorted)
    (match s.kind with
    | Generated -> [ s.chunking ]
    | _ when s.name = "c_ww_global_inter_block" -> awkward
    | _ -> [ cut997 ])

(* 4. Instrumented builds (block tier, static tier; off, the detector
   checks every access); deployed is what [profile], Figure 10 and
   [Session.launch] run.  Each shares check's verdict, racy locations,
   barrier divergences and unordered racing pairs, and keeps the
   unpruned build's race keys; on the served kernels, at 1, 2, 4 and 7
   shards too, its serial verdict, race keys and divergences.  By
   design, on static_racy.ptx the block tier drops the logging of a
   load after the same thread's store to the same word: RedCard's rule
   keeps racy locations, not pairs (276 fall to 20). *)
let builds =
  [ ("block and static tiers off", false, false);
    ("block tier off", false, true); ("block tier alone", true, false);
    ("deployed", true, true) ]

let instrumented s =
  let want = Report.errors (check s).report in
  let unpruned = ref [] in
  List.iteri
    (fun i (build, prune, static) ->
      let inst =
        Instrument.Pass.instrument ~prune ~static ~layout:s.layout s.kernel
      in
      let plan = if static then plan s else every_access s in
      let got = errors_at ~inst ~plan s 0 in
      let by_design = s.name = "static_racy.ptx" && prune in
      let racy errors = verdict (Gen.race_keys errors <> []) in
      let shared e =
        ((racy e :: locations e) @ divergences e)
        @ if by_design then [] else pairs e
      in
      agree s ("instrumented build, " ^ build) (shared want) (shared got);
      if i = 0 then unpruned := keys got
      else if not by_design then
        agree s (build ^ " against the unpruned build") !unpruned (keys got);
      if s.kind <> Workload then
        List.iter
          (fun k ->
            let merged = errors_at ~inst ~plan s k in
            agree s
              (Printf.sprintf "instrumented build, %s, at %d shards" build k)
              ((racy got :: keys got) @ divergences got)
              ((racy merged :: keys merged) @ divergences merged))
          [ 1; 2; 4; 7 ])
    builds

(* 5. [replay] of a [--dump-trace]: read back, the trace check's tap
   wrote is feasible, and the reference semantics finds check's
   verdict, race count and race keys.  Reference reports carry no
   instruction ids and order races their own way, so lines and order
   are not compared. *)
let replay s =
  let c = check s in
  let layout, ops = Gtrace.Serialize.of_string c.dump in
  let feasible =
    match Gtrace.Feasible.check ~layout ops with
    | Ok () -> "feasible"
    | Error v -> Format.asprintf "%a" Gtrace.Feasible.pp_violation v
  in
  let r = Barracuda.Reference.create ~max_reports:100000 ~layout () in
  Barracuda.Reference.run r ops;
  let summary report =
    verdict (Report.has_race report)
    :: races (Report.race_count report)
    :: keys (Report.errors report)
  in
  let layout_line = Format.asprintf "%a" Vclock.Layout.pp in
  agree s "replay of the dumped trace"
    (layout_line s.layout :: "feasible" :: summary c.report)
    (layout_line layout :: feasible :: summary (Barracuda.Reference.report r))

(* 6. A daemon check job: with the static analysis off, check's
   verdict, race count and first 20 error lines in order; with it on,
   check's verdict from the cache — a kernel answered without running
   it (static_racy.ptx alone) must race when run.  7. A daemon
   streaming session over check's recording, in 997-byte appends:
   check's verdict, race count and record count.  The daemon counts
   every job and cache hit. *)
let daemon () =
  Gen.with_telemetry @@ fun () ->
  Test_service.with_server "equiv" @@ fun socket _ ->
  let fail s what e = Alcotest.failf "%s, daemon %s: %s" s.name what e in
  let answer racy n = [ verdict racy; races n ] in
  List.iter
    (fun s ->
      let c = check s and sub = Option.get s.submit in
      let want =
        answer (Report.has_race c.report) (Report.race_count c.report)
      in
      let job static =
        match
          Service.Client.submit ~retries:10 ~socket { sub with P.static }
        with
        | Ok (P.Result { outcome = o; _ }) ->
            (answer (o.P.verdict = P.Racy) o.P.races, o)
        | Ok r -> fail s "submit" (P.encode_response r)
        | Error e -> fail s "submit" e
      in
      let got, o = job false in
      agree s "daemon submit, static analysis off"
        (want @ List.filteri (fun i _ -> i < 20) (lines c.report))
        (got @ o.P.errors);
      let got, o = job true in
      let flags = Printf.sprintf "static %b, cache hit %b" in
      agree s "daemon submit, static analysis on"
        [ List.hd want; flags (s.name = "static_racy.ptx") true ]
        [ List.hd got; flags o.P.static o.P.cache_hit ];
      let stream = { sub with P.args = [] } in
      match Service.Client.stream_open ~retries:10 ~socket stream with
      | Error e -> fail s "stream" e
      | Ok session -> (
          let total = String.length c.recording in
          for i = 0 to (total - 1) / 997 do
            let pos = i * 997 in
            String.sub c.recording pos (min 997 (total - pos))
            |> Service.Client.stream_append session
            |> Result.iter_error (fail s "stream")
          done;
          match Service.Client.stream_close session with
          | Error e -> fail s "stream" e
          | Ok v ->
              let got = answer (v.P.verdict = P.Racy) v.P.races in
              agree s "daemon streaming session"
                (records c.records :: want)
                (records v.P.records :: got)))
    daemon_kernels;
  let n = 2 * List.length daemon_kernels in
  (match Service.Client.status ~socket with
  | Ok st ->
      Alcotest.(check (pair int int)) "jobs submitted, cache hits" (n, n)
        (st.P.jobs.submitted, st.P.cache.hits)
  | Error e -> Alcotest.failf "status: %s" e);
  let hits l = Scanf.sscanf_opt l "barracuda_service_cache_hits%_s %d" Fun.id in
  match Service.Client.metrics ~socket with
  | Error e -> Alcotest.failf "metrics: %s" e
  | Ok text ->
      Alcotest.(check (list int)) "barracuda_service_cache_hits" [ n ]
        (List.filter_map hits (String.split_on_char '\n' text))

(* 8. Repair's diagnosis: check's observed verdict and barrier
   divergence. *)
let diagnosis s =
  let want = Report.errors (check s).report in
  let d = Repair.Localize.diagnose ~layout:s.layout ~setup:s.setup s.kernel in
  agree s "repair's diagnosis"
    [ verdict (Gen.race_keys want <> []); bardiv (divergences want <> []) ]
    [ verdict d.Repair.Localize.observed_racy; bardiv d.bardiv ]

(* 9. The campaign baseline, the fault-free verdict a campaign scores
   its trials against: check's verdict, not degraded. *)
let baseline (s : subject) =
  let case =
    Bugsuite.Case.{ id = 0; name = s.name; descr = ""; layout = s.layout;
      kernel = s.kernel; setup = s.setup; verdict = Race_free;
      expect_bardiv = false }
  in
  let racy, degraded = Campaign.Trial.pipeline_verdict case in
  agree s "campaign baseline"
    [ verdict (Report.has_race (check s).report); "degraded false" ]
    [ verdict racy; "degraded " ^ string_of_bool degraded ]

(* The corpus is whole, check runs every kernel to completion, and it
   finds the barrier divergences the kernels' authors state. *)
let whole () =
  Alcotest.(check (list int)) "corpus, served, daemon, generated"
    [ 103; 77; 77; 60 ]
    (List.map List.length [ corpus; served; daemon_kernels; generated ]);
  List.iter
    (fun s ->
      let found = divergences (Report.errors (check s).report) <> [] in
      match s.kind with
      | Served stated -> agree s "check" [ bardiv stated ] [ bardiv found ]
      | Workload | Generated -> ())
    (corpus @ generated)

(* ---- the entry points -------------------------------------------- *)

let each kernels obligation () = List.iter obligation kernels

let suite =
  List.map
    (fun (name, f) -> Alcotest.test_case name `Quick f)
    [
      ("check runs the whole corpus", whole);
      ("1. static tier off", each (corpus @ generated) static_off);
      ("2. Shard.Stream.sink", each (corpus @ generated) shard_sink);
      ("3. streaming sessions", each (corpus @ generated) streaming);
      ("4. instrumented builds", each corpus instrumented);
      ("5. replay of a dumped trace", each corpus replay);
      ("6-7. daemon submit and stream", daemon);
      ("8. repair's diagnosis", each served diagnosis);
      ("9. campaign baseline", each served baseline);
    ]
