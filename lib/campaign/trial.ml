(* Single-trial machinery shared by the foreground campaign sweep
   ([Campaign.run]) and the background daemon ([Daemon]): fault-class
   table, per-trial seed derivation, pipeline verdicts and trial
   classification.  Everything here is a pure function of the seed
   tuple, which is what makes journals mergeable and reports bitwise
   reproducible. *)

module Case = Bugsuite.Case
module Plan = Fault.Plan

type cell = {
  trials : int;
  injected : int;  (* faults actually injected across the trials *)
  masked : int;
  absorbed : int;
  degraded_wrong : int;
  silent_wrong : int;
  crashed : int;
}

let empty_cell =
  {
    trials = 0;
    injected = 0;
    masked = 0;
    absorbed = 0;
    degraded_wrong = 0;
    silent_wrong = 0;
    crashed = 0;
  }

let trial_seed ~seed ~case_id ~cls ~trial =
  (seed * 0x9E3779B1) lxor (case_id * 7919) lxor (cls * 104729) lxor (trial * 31)
  |> abs

let transport_classes =
  [
    ("bit_flip", fun s -> { Plan.none with Plan.seed = s; bit_flip = 0.05 });
    ("drop", fun s -> { Plan.none with Plan.seed = s; drop = 0.05 });
    ("duplicate", fun s -> { Plan.none with Plan.seed = s; duplicate = 0.05 });
    ( "delay",
      fun s -> { Plan.none with Plan.seed = s; delay = 0.05; delay_hold = 3 } );
  ]

let class_count = List.length transport_classes
let class_names = List.map fst transport_classes

let pipeline_verdict ?fault (case : Case.t) =
  let machine = Simt.Machine.create ~layout:case.Case.layout () in
  let args = case.Case.setup machine in
  let result =
    Gpu_runtime.Session.run_stream ?fault ~machine case.Case.kernel args
  in
  let report = result.Gpu_runtime.Session.sr_report in
  (Barracuda.Report.has_race report, Barracuda.Report.degraded report)

let transport_trial ~baseline_race ~plan case cell =
  let cell = { cell with trials = cell.trials + 1 } in
  match pipeline_verdict ~fault:plan case with
  | exception _ -> { cell with crashed = cell.crashed + 1 }
  | race, degraded ->
      let inj = Plan.injected plan in
      let n = inj.Plan.flips + inj.Plan.drops + inj.Plan.dups + inj.Plan.delays in
      let cell = { cell with injected = cell.injected + n } in
      let right = Bool.equal race baseline_race in
      if right && not degraded then { cell with masked = cell.masked + 1 }
      else if right then { cell with absorbed = cell.absorbed + 1 }
      else if degraded then
        { cell with degraded_wrong = cell.degraded_wrong + 1 }
      else { cell with silent_wrong = cell.silent_wrong + 1 }
