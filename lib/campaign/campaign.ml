(* Seeded fault-injection campaign over the bug suite.

   Every trial derives its fault plan seed from (campaign seed, case
   id, fault class, trial index) alone, and the report carries only
   counts — no timestamps, no durations — so a campaign with a fixed
   seed is bitwise reproducible. *)

module Case = Bugsuite.Case
module Plan = Fault.Plan

(* The single-trial machinery, the resumable journal and the
   background sweep live in their own modules, re-exported here as the
   library's public face. *)
module Trial = Trial
module Journal = Journal
module Daemon = Daemon

type config = { seed : int; quick : bool; trials : int }

let default_config = { seed = 42; quick = false; trials = 3 }

type cell = Trial.cell = {
  trials : int;
  injected : int;  (* faults actually injected across the trials *)
  masked : int;
  absorbed : int;
  degraded_wrong : int;
  silent_wrong : int;
  crashed : int;
}

type machine_cell = {
  m_trials : int;
  applied : int;
  m_masked : int;
  sdc : int;  (* run finished with a different verdict *)
  m_crashed : int;  (* the interpreter raised on the corrupted state *)
}

type service_cell = {
  jobs : int;
  parity : bool;  (* crash-survivor verdicts match one-shot checking *)
  workers_restarted : int;
  quarantined : int;
  quarantine_ok : bool;  (* the poison job failed with code "quarantined" *)
}

type shard_cell = {
  s_trials : int;
  s_injected : int;  (* shard-crash injections that actually fired *)
  s_loud : int;  (* job failed loudly with Shard_crashed *)
  s_masked : int;  (* crash never fired (stream too short), verdict right *)
  s_silent_wrong : int;  (* completed wrong, or completed despite a crash *)
}

type t = {
  seed : int;
  cases : int;
  transport : (string * cell) list;
  machine : machine_cell;
  service : service_cell;
  shard : shard_cell;
}

(* ---- machine (gpuFI-style architectural flips) ------------------- *)

let run_machine ~seed ~trials cases =
  List.fold_left
    (fun acc (case : Case.t) ->
      let baseline_race, _ = Trial.pipeline_verdict case in
      let rec go acc trial =
        if trial >= trials then acc
        else
          let s = Trial.trial_seed ~seed ~case_id:case.Case.id ~cls:17 ~trial in
          let plan =
            Plan.make
              {
                Plan.none with
                Plan.seed = s;
                reg_flips = 2;
                smem_flips = 1;
                (* bug-suite kernels are tiny (tens to hundreds of
                   steps); a window wider than the run means most
                   scheduled flips never fire *)
                fault_window = 64;
              }
          in
          let acc = { acc with m_trials = acc.m_trials + 1 } in
          let acc =
            match Trial.pipeline_verdict ~fault:plan case with
            | exception _ -> { acc with m_crashed = acc.m_crashed + 1 }
            | race, _ ->
                let inj = Plan.injected plan in
                let acc =
                  {
                    acc with
                    applied =
                      acc.applied + inj.Plan.reg_flips_applied
                      + inj.Plan.smem_flips_applied;
                  }
                in
                if Bool.equal race baseline_race then
                  { acc with m_masked = acc.m_masked + 1 }
                else { acc with sdc = acc.sdc + 1 }
          in
          go acc (trial + 1)
      in
      go acc 0)
    { m_trials = 0; applied = 0; m_masked = 0; sdc = 0; m_crashed = 0 }
    cases

(* ---- service (worker crashes, requeue, quarantine) --------------- *)

let oneshot_verdict case = fst (Trial.pipeline_verdict case)

let run_service ~seed cases =
  let cases = Array.of_list cases in
  let n = Array.length cases in
  let by_name = Hashtbl.create 16 in
  Array.iter (fun (c : Case.t) -> Hashtbl.replace by_name c.Case.name c) cases;
  let exec ~job (sub : Service.Protocol.submit) =
    match Hashtbl.find_opt by_name sub.Service.Protocol.payload with
    | None ->
        Service.Protocol.Failed
          { job; code = "bad_request"; message = "unknown campaign case" }
    | Some case ->
        let race = oneshot_verdict case in
        Service.Protocol.Result
          {
            job;
            outcome =
              {
                Service.Protocol.default_outcome with
                Service.Protocol.verdict =
                  (if race then Service.Protocol.Racy
                   else Service.Protocol.Race_free);
              };
            queue_ms = 0.0;
            run_ms = 0.0;
          }
  in
  (* Jobs 1..n are the parity sweep; every third crashes its worker
     once (exercising requeue + retry).  Job n+1 is poison: it
     crashes on every attempt and must come back quarantined. *)
  let crash_once =
    List.filter (fun id -> id mod 3 = 1) (List.init n (fun i -> i + 1))
  in
  let plan =
    Plan.make
      { Plan.none with Plan.seed = seed; crash_once_jobs = crash_once;
        poison_jobs = [ n + 1 ] }
  in
  let sched =
    Service.Scheduler.create
      ~config:
        {
          Service.Scheduler.default_config with
          Service.Scheduler.workers = 2;
          queue_capacity = n + 8;
          fault = Some plan;
        }
      ~exec ()
  in
  let lock = Mutex.create () in
  let replies = Array.make (n + 1) None in
  let submit_case i payload =
    Service.Scheduler.submit sched
      (Service.Protocol.submit_defaults ~kind:Service.Protocol.Check payload)
      ~reply:(fun resp ->
        Mutex.lock lock;
        replies.(i) <- Some resp;
        Mutex.unlock lock)
  in
  Array.iteri (fun i (c : Case.t) -> submit_case i c.Case.name) cases;
  submit_case n cases.(0).Case.name;
  Service.Scheduler.stop sched;
  let parity =
    Array.for_all Fun.id
      (Array.init n (fun i ->
           match replies.(i) with
           | Some
               (Service.Protocol.Result
                  { outcome = { Service.Protocol.verdict; _ }; _ }) ->
               Bool.equal (oneshot_verdict cases.(i))
                 (verdict = Service.Protocol.Racy)
           | _ -> false))
  in
  let quarantine_ok =
    match replies.(n) with
    | Some (Service.Protocol.Failed { code = "quarantined"; _ }) -> true
    | _ -> false
  in
  let c = Service.Scheduler.counts sched in
  {
    jobs = n + 1;
    parity;
    workers_restarted = c.Service.Scheduler.workers_restarted;
    quarantined = c.Service.Scheduler.quarantined;
    quarantine_ok;
  }

(* ---- shard crashes (a detector domain dies mid-job) -------------- *)

let sharded_verdict ?fault ~shards (case : Case.t) =
  let layout = case.Case.layout in
  let machine = Simt.Machine.create ~layout () in
  let args = case.Case.setup machine in
  let sink = Shard.Stream.sink ?fault ~layout ~shards case.Case.kernel in
  let result =
    Gpu_runtime.Session.run_stream ~sink ?fault ~machine case.Case.kernel args
  in
  Barracuda.Report.has_race result.Gpu_runtime.Session.sr_report

(* Each trial dooms one shard's consumer domain a few records into the
   job.  The only acceptable outcomes are a loud [Shard_crashed]
   failure or — when the case's record stream is too short for the
   crash to fire — a correct verdict.  A job that completes despite a
   fired crash means the merge silently used a dead shard's partial
   state: the exact failure mode the engine exists to rule out. *)
let run_shard ~seed ~trials cases =
  let shards = 3 in
  List.fold_left
    (fun acc (case : Case.t) ->
      let baseline_race, _ = Trial.pipeline_verdict case in
      let rec go acc trial =
        if trial >= trials then acc
        else begin
          let s = Trial.trial_seed ~seed ~case_id:case.Case.id ~cls:23 ~trial in
          let plan =
            Plan.make
              {
                Plan.none with
                Plan.seed = s;
                shard_crash_shards = [ trial mod shards ];
                shard_crash_after = 4;
              }
          in
          let acc = { acc with s_trials = acc.s_trials + 1 } in
          let acc =
            match sharded_verdict ~fault:plan ~shards case with
            | exception Shard.Engine.Shard_crashed _ ->
                {
                  acc with
                  s_loud = acc.s_loud + 1;
                  s_injected =
                    acc.s_injected + (Plan.injected plan).Plan.shard_crashes;
                }
            | race ->
                let fired = (Plan.injected plan).Plan.shard_crashes in
                let acc = { acc with s_injected = acc.s_injected + fired } in
                if fired > 0 then
                  { acc with s_silent_wrong = acc.s_silent_wrong + 1 }
                else if Bool.equal race baseline_race then
                  { acc with s_masked = acc.s_masked + 1 }
                else { acc with s_silent_wrong = acc.s_silent_wrong + 1 }
          in
          go acc (trial + 1)
        end
      in
      go acc 0)
    { s_trials = 0; s_injected = 0; s_loud = 0; s_masked = 0; s_silent_wrong = 0 }
    cases

(* ---- driver ------------------------------------------------------ *)

let take k l = List.filteri (fun i _ -> i < k) l

let run ?(config = default_config) () =
  let all = Bugsuite.Cases.all in
  let transport_cases, machine_cases, service_cases, shard_cases, trials =
    if config.quick then (8, take 4 all, take 6 all, take 4 all, 1)
    else (List.length all, take 16 all, take 12 all, take 12 all, config.trials)
  in
  (* The transport sweep is the fleet campaign's trial space, stepped
     through in one go. *)
  let j = Journal.create ~seed:config.seed ~cases:transport_cases ~trials in
  ignore (Journal.step j ~n:(Journal.total j));
  {
    seed = config.seed;
    cases = j.Journal.j_cases;
    transport = j.Journal.j_cells;
    machine = run_machine ~seed:config.seed ~trials:1 machine_cases;
    service = run_service ~seed:config.seed service_cases;
    shard = run_shard ~seed:config.seed ~trials shard_cases;
  }

let ok t =
  List.for_all
    (fun (_, c) -> c.silent_wrong = 0 && c.crashed = 0)
    t.transport
  && t.service.parity && t.service.quarantine_ok
  && t.service.workers_restarted > 0
  && t.service.quarantined = 1
  && t.shard.s_silent_wrong = 0
  && (t.shard.s_trials = 0 || t.shard.s_loud > 0)

(* ---- rendering --------------------------------------------------- *)

let to_json t =
  let module J = Telemetry.Json in
  let ints fields = J.Obj (List.map (fun (k, v) -> (k, J.Int v)) fields) in
  (* The schema version travels with every campaign artifact (this
     report and the resumable journal alike) so consumers — and
     journal merges — can reject incompatible trial formats loudly. *)
  J.to_string ~minify:true
    (J.Obj
       [
         ("schema_version", J.Int Journal.schema_version);
         ("seed", J.Int t.seed);
         ("cases", J.Int t.cases);
         ("ok", J.Bool (ok t));
         ("transport", Journal.classes_json t.transport);
         ( "machine",
           ints
             [
               ("trials", t.machine.m_trials);
               ("applied", t.machine.applied);
               ("masked", t.machine.m_masked);
               ("sdc", t.machine.sdc);
               ("crashed", t.machine.m_crashed);
             ] );
         ( "service",
           J.Obj
             [
               ("jobs", J.Int t.service.jobs);
               ("parity", J.Bool t.service.parity);
               ("workers_restarted", J.Int t.service.workers_restarted);
               ("quarantined", J.Int t.service.quarantined);
               ("quarantine_ok", J.Bool t.service.quarantine_ok);
             ] );
         ( "shard",
           ints
             [
               ("trials", t.shard.s_trials);
               ("injected", t.shard.s_injected);
               ("loud", t.shard.s_loud);
               ("masked", t.shard.s_masked);
               ("silent_wrong", t.shard.s_silent_wrong);
             ] );
       ])

let pp ppf t =
  Format.fprintf ppf "fault campaign: seed %d, %d bug-suite cases@." t.seed
    t.cases;
  Format.fprintf ppf
    "  %-10s %7s %8s %7s %9s %9s %7s %8s@." "class" "trials" "injected"
    "masked" "absorbed" "deg-wrong" "silent" "crashed";
  List.iter
    (fun (name, c) ->
      Format.fprintf ppf "  %-10s %7d %8d %7d %9d %9d %7d %8d@." name c.trials
        c.injected c.masked c.absorbed c.degraded_wrong c.silent_wrong
        c.crashed)
    t.transport;
  Format.fprintf ppf
    "  machine: %d trials, %d flips applied: %d masked, %d SDC, %d crashed@."
    t.machine.m_trials t.machine.applied t.machine.m_masked t.machine.sdc
    t.machine.m_crashed;
  Format.fprintf ppf
    "  service: %d jobs, parity %b, %d worker crashes recovered, %d \
     quarantined (poison reply %s)@."
    t.service.jobs t.service.parity t.service.workers_restarted
    t.service.quarantined
    (if t.service.quarantine_ok then "ok" else "WRONG");
  Format.fprintf ppf
    "  shard: %d trials, %d crashes fired: %d loud failures, %d masked, %d \
     silent-wrong@."
    t.shard.s_trials t.shard.s_injected t.shard.s_loud t.shard.s_masked
    t.shard.s_silent_wrong;
  Format.fprintf ppf "  verdict: %s@."
    (if ok t then "no silent corruption, service healed itself"
     else "FAILED (silent corruption or unhealed service)")
