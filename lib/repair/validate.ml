(* Candidate validation: a fix is accepted only when the *unchanged*
   detection stack can find nothing wrong with it.

   The gauntlet, cheapest rejection first:

   1. print -> re-parse -> static validation: the accepted artifact is
      the printed PTX, so everything downstream runs the re-parsed
      kernel, proving the printer/parser roundtrip on the exact fix;
      the static race analysis must also prove no realizable pair, so
      acceptance implies a re-diagnosis comes back clean (repair is
      idempotent by construction);
   2. serial check (uninstrumented, as [barracuda check] runs it):
      completes, reports no race, no *new* barrier divergence, and is
      not degraded;
   3. serial rerun: bitwise-identical verdict (determinism);
   4. sharded check: verdict parity with the serial run;
   5. predictive schedule exploration: no race in any feasible
      reordering of the recorded trace;
   6. a quick seeded fault-campaign slice: transport drops/duplicates
      must not crash the checker, and any race reported without the
      transport's own degraded caveat is treated as real.

   Rejections never raise; every failure mode maps to a reason
   string so the engine can report why a candidate died. *)

module Report = Barracuda.Report

type config = { max_steps : int; shards : int; seed : int }

(* Seeded lossy-transport runs in stage 6. *)
let fault_trials = 2

type verdict = Accepted of Ptx.Ast.kernel * string | Rejected of string
(** [Accepted (reparsed, ptx)] carries the printed artifact and its
    re-parse, which is what every validation stage actually ran. *)

let bardiv_of (result : Gpu_runtime.Session.stream_result) =
  result.Gpu_runtime.Session.sr_machine_result.Simt.Machine.barrier_divergence
  || Localize.bardiv_reported result.Gpu_runtime.Session.sr_report

let race_summary report =
  String.concat "; "
    (List.map Report.error_to_string
       (List.filteri (fun i _ -> i < 3) (Report.errors report)))

(* Every stage runs the kernel exactly as [barracuda check] does:
   uninstrumented, through the session core; [shards] selects the
   backend. *)
let run ?(shards = 1) ?fault ~config ~layout ~setup kernel =
  let machine = Simt.Machine.create ~layout () in
  let args = setup machine in
  Gpu_runtime.Session.run_stream
    ?sink:(Shard.Stream.sink_for ~layout ~shards kernel)
    ?fault ~max_steps:config.max_steps ~machine kernel args

let rec check ~config ~layout ~setup ~baseline_bardiv kernel =
  (* 1. roundtrip through the printer and parser *)
  match
    let ptx = Ptx.Printer.kernel_to_string kernel in
    (ptx, Ptx.Parser.kernel_of_string ptx)
  with
  | exception Ptx.Parser.Error { line; message } ->
      Rejected
        (Printf.sprintf "patched kernel fails to re-parse (line %d: %s)" line
           message)
  | exception exn ->
      Rejected
        (Printf.sprintf "patched kernel fails to print (%s)"
           (Printexc.to_string exn))
  | ptx, kernel -> (
      match Ptx.Validate.check kernel with
      | _ :: _ -> Rejected "patched kernel fails static validation"
      | [] -> (
          (* The static race analysis gates the diagnosis, so it gates
             acceptance too — otherwise a fix could be accepted that a
             re-diagnosis would still call racy, breaking the
             repair-is-idempotent fixed point. *)
          match
            Static.Analysis.realizable_pairs
              (Static.Plan.analysis (Static.Plan.of_kernel kernel))
              ~layout
          with
          | exception exn ->
              Rejected
                (Printf.sprintf "static analysis crashed (%s)"
                   (Printexc.to_string exn))
          | _ :: _ -> Rejected "static analysis still proves a race"
          | [] -> (
          (* 2. serial check *)
          match run ~config ~layout ~setup kernel with
          | exception exn ->
              Rejected
                (Printf.sprintf "serial check crashed (%s)"
                   (Printexc.to_string exn))
          | result -> (
              let report = result.Gpu_runtime.Session.sr_report in
              let status =
                result.Gpu_runtime.Session.sr_machine_result.Simt.Machine
                  .status
              in
              if status <> Simt.Machine.Completed then
                Rejected "patched kernel exhausts its step budget"
              else if Report.has_race report then
                Rejected
                  (Printf.sprintf "race survives: %s" (race_summary report))
              else if bardiv_of result && not baseline_bardiv then
                Rejected "fix introduces barrier divergence"
              else if Report.degraded report then
                Rejected "serial check degraded"
              else
                (* 3. determinism: identical rerun *)
                match run ~config ~layout ~setup kernel with
                | exception exn ->
                    Rejected
                      (Printf.sprintf "rerun crashed (%s)"
                         (Printexc.to_string exn))
                | result2 ->
                    let report2 = result2.Gpu_runtime.Session.sr_report in
                    if
                      Report.has_race report2
                      || bardiv_of result2 <> bardiv_of result
                    then Rejected "validation is nondeterministic"
                    else validate_sharded ~config ~layout ~setup
                           ~baseline_bardiv ~kernel ~ptx))))

and validate_sharded ~config ~layout ~setup ~baseline_bardiv ~kernel ~ptx =
  (* 4. sharded parity *)
  match run ~shards:(max 2 config.shards) ~config ~layout ~setup kernel with
  | exception exn ->
      Rejected
        (Printf.sprintf "sharded check crashed (%s)" (Printexc.to_string exn))
  | sresult ->
      let sreport = sresult.Gpu_runtime.Session.sr_report in
      if Report.has_race sreport then
        Rejected
          (Printf.sprintf "sharded check disagrees: %s"
             (race_summary sreport))
      else if bardiv_of sresult && not baseline_bardiv then
        Rejected "sharded check sees barrier divergence"
      else validate_predict ~config ~layout ~setup ~baseline_bardiv ~kernel
             ~ptx

and validate_predict ~config ~layout ~setup ~baseline_bardiv ~kernel ~ptx =
  (* 5. schedule exploration *)
  let machine = Simt.Machine.create ~layout () in
  let args = setup machine in
  match
    let roles = Static.Plan.roles (Static.Plan.of_kernel kernel) in
    Gtrace.Infer.run ~max_steps:config.max_steps ~roles ~layout machine kernel
      args
  with
  | exception exn ->
      Rejected
        (Printf.sprintf "trace inference crashed (%s)" (Printexc.to_string exn))
  | ops, _ ->
      let a = Predict.Analysis.run ~layout ops in
      if Predict.Analysis.has_race a then
        Rejected "a feasible schedule still races (predict)"
      else validate_faults ~config ~layout ~setup ~baseline_bardiv ~kernel ~ptx

and validate_faults ~config ~layout ~setup ~baseline_bardiv:_ ~kernel ~ptx =
  (* 6. quick fault slice: lossy transport must neither crash the
     checker nor produce an *undegraded* race verdict.  A degraded racy
     outcome is absorbed — dropping barrier records legitimately
     manufactures apparent races, and the report carries the caveat. *)
  let rec trial i =
    if i > fault_trials then Accepted (kernel, ptx)
    else
      let plan =
        Fault.Plan.make
          {
            Fault.Plan.none with
            Fault.Plan.seed = config.seed + i;
            drop = 0.02;
            duplicate = 0.03;
          }
      in
      match run ~fault:plan ~config ~layout ~setup kernel with
      | exception exn ->
          Rejected
            (Printf.sprintf "fault trial %d crashed (%s)" i
               (Printexc.to_string exn))
      | result ->
          let report = result.Gpu_runtime.Session.sr_report in
          if Report.has_race report && not (Report.degraded report) then
            Rejected
              (Printf.sprintf "fault trial %d reports an undegraded race" i)
          else trial (i + 1)
  in
  trial 1
