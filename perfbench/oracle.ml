(* The correctness oracle: the literal-semantics reference detector
   (Barracuda.Reference, paper Figures 2-3, full per-thread vector
   clocks) run over the abstract trace of the same launch.  Every
   verdict the benchmark times is compared against it.  Oracle runs
   happen before timing starts and are neither timed nor counted as
   set-up. *)

(* Enough that no report is ever capped: race sets compare whole. *)
let max_reports = 1_000_000

let detector_config =
  { Barracuda.Detector.default_config with Barracuda.Detector.max_reports }

type key = {
  loc : Gtrace.Loc.t;
  prev_tid : int;
  prev_kind : Barracuda.Report.access_kind;
  cur_tid : int;
  cur_kind : Barracuda.Report.access_kind;
}

(* The races' dedup keys, without instruction ids (metadata that the
   reference does not carry). *)
let race_set_of_errors errors =
  errors
  |> List.filter_map (function
       | Barracuda.Report.Race r ->
           Some
             {
               loc = r.Barracuda.Report.loc;
               prev_tid = r.prev_tid;
               prev_kind = r.prev_kind;
               cur_tid = r.cur_tid;
               cur_kind = r.cur_kind;
             }
       | Barracuda.Report.Barrier_divergence _ -> None)
  |> List.sort_uniq compare

let race_set report = race_set_of_errors (Barracuda.Report.errors report)

type expect = { races : key list; racy : bool; count : int }

let of_report report =
  let races = race_set report in
  { races; racy = races <> []; count = List.length races }

(* Placeholder until the oracle has run. *)
let none = { races = []; racy = false; count = 0 }

(* Launch [kernel] on a fresh machine prepared by [setup] and judge its
   trace with the reference detector. *)
let reference ~layout ~setup kernel =
  let machine = Simt.Machine.create ~layout () in
  let args = setup machine in
  let ops, result = Gtrace.Infer.run ~layout machine kernel args in
  (match result.Simt.Machine.status with
  | Simt.Machine.Completed -> ()
  | _ -> failwith ("oracle: kernel did not complete: " ^ kernel.Ptx.Ast.kname));
  let d = Barracuda.Reference.create ~max_reports ~layout () in
  Barracuda.Reference.run d ops;
  of_report (Barracuda.Reference.report d)
