(* Versioned on-disk campaign journal.

   The trial space is linearized case-major: index i covers
   case i / (classes * trials), class (i mod (classes * trials)) /
   trials, trial i mod trials.  The journal is just the cursor into
   that line plus the per-class cells accumulated so far — because
   every trial's outcome is a pure function of the seed tuple
   ({!Trial.trial_seed}), resuming from the cursor reproduces exactly
   the trials an uninterrupted run would have done, and the merged
   counts are monotone: a trial is folded in once, at the moment the
   cursor passes it, and checkpoints are atomic (tmp + rename), so a
   kill can neither lose nor double-count trials. *)

module Json = Telemetry.Json
module Case = Bugsuite.Case

(* 2: trials run the kernel uninstrumented through the session core,
   with one transport-fault stream per run. *)
let schema_version = 2
let file_name = "campaign.json"

type t = {
  j_seed : int;
  j_cases : int;
  j_trials : int;  (* per (case, class) *)
  mutable j_cursor : int;  (* trials completed, = next linear index *)
  mutable j_batches : int;  (* checkpointed batches (not in reports) *)
  mutable j_cells : (string * Trial.cell) list;  (* class-name order *)
}

let create ~seed ~cases ~trials =
  if cases < 1 || trials < 1 then
    invalid_arg "campaign: cases and trials must be at least 1";
  {
    j_seed = seed;
    j_cases = min cases (List.length Bugsuite.Cases.all);
    j_trials = trials;
    j_cursor = 0;
    j_batches = 0;
    j_cells = List.map (fun name -> (name, Trial.empty_cell)) Trial.class_names;
  }

let total j = j.j_cases * Trial.class_count * j.j_trials
let complete j = j.j_cursor >= total j

(* Which trials run, and their outcomes, depend only on the seed and
   the cursor — never on wall-clock, load or earlier interruptions. *)
let step ?(baselines = Hashtbl.create 8) j ~n =
  let cases =
    Array.of_list (List.filteri (fun i _ -> i < j.j_cases) Bugsuite.Cases.all)
  in
  let classes = Array.of_list Trial.transport_classes in
  let per_case = Trial.class_count * j.j_trials in
  (* A journal written against a larger bug suite than this build
     carries can only be advanced over the cases that exist. *)
  let ceiling = min (total j) (Array.length cases * per_case) in
  let stop = min ceiling (j.j_cursor + max 0 n) in
  let ran = stop - j.j_cursor in
  for i = j.j_cursor to stop - 1 do
    let case = cases.(i / per_case) in
    let rem = i mod per_case in
    let cls = rem / j.j_trials in
    let trial = rem mod j.j_trials in
    let baseline_race =
      match Hashtbl.find_opt baselines (i / per_case) with
      | Some b -> b
      | None ->
          let b, _ = Trial.pipeline_verdict case in
          Hashtbl.replace baselines (i / per_case) b;
          b
    in
    let name, spec_of = classes.(cls) in
    let s = Trial.trial_seed ~seed:j.j_seed ~case_id:case.Case.id ~cls ~trial in
    let plan = Fault.Plan.make (spec_of s) in
    j.j_cells <-
      List.map
        (fun (n', cell) ->
          if String.equal n' name then
            (n', Trial.transport_trial ~baseline_race ~plan case cell)
          else (n', cell))
        j.j_cells
  done;
  j.j_cursor <- stop;
  if ran > 0 then j.j_batches <- j.j_batches + 1;
  ran

let silent_wrong j =
  List.fold_left
    (fun acc (_, (c : Trial.cell)) -> acc + c.Trial.silent_wrong)
    0 j.j_cells

let clean j =
  List.for_all
    (fun (_, (c : Trial.cell)) ->
      c.Trial.silent_wrong = 0 && c.Trial.crashed = 0)
    j.j_cells

let ok j = complete j && clean j

module C = Json.Codec

let cell =
  C.(
    seal
      (obj
         (fun trials injected masked absorbed degraded_wrong silent_wrong
              crashed ->
           { Trial.trials; injected; masked; absorbed; degraded_wrong;
             silent_wrong; crashed })
      |+ field "trials" int (fun c -> c.Trial.trials)
      |+ field "injected" int (fun c -> c.Trial.injected)
      |+ field "masked" int (fun c -> c.Trial.masked)
      |+ field "absorbed" int (fun c -> c.Trial.absorbed)
      |+ field "degraded_wrong" int (fun c -> c.Trial.degraded_wrong)
      |+ field "silent_wrong" int (fun c -> c.Trial.silent_wrong)
      |+ field "crashed" int (fun c -> c.Trial.crashed)))

let classes = C.assoc Trial.class_names cell
let classes_json cells = C.encode classes cells

(* Checked as the first field, so a journal of another version is
   refused before any field it may lack is missed.  Loud and versioned,
   mirroring the trace-file rejection: silently merging incompatible
   trial formats would corrupt the campaign. *)
let version =
  C.conv Fun.id
    (fun v ->
      if v = schema_version then Ok v
      else
        Error
          (Printf.sprintf
             "schema version %d (expected %d): refusing to merge \
              incompatible trial formats"
             v schema_version))
    C.int

let journal =
  C.(
    seal
      (obj (fun _ j_seed j_cases j_trials j_cursor j_batches j_cells ->
           { j_seed; j_cases; j_trials; j_cursor; j_batches; j_cells })
      |+ field "schema_version" version (fun _ -> schema_version)
      |+ field "seed" int (fun j -> j.j_seed)
      |+ field "cases" int (fun j -> j.j_cases)
      |+ field "trials" int (fun j -> j.j_trials)
      |+ field "cursor" int (fun j -> j.j_cursor)
      |+ field "batches" int (fun j -> j.j_batches)
      |+ field "classes" classes (fun j -> j.j_cells)))

let of_string s =
  match C.of_string journal s with
  | Error e -> Error ("campaign journal: " ^ e)
  | Ok j when j.j_cursor < 0 || j.j_cases < 0 || j.j_trials < 0 ->
      Error "campaign journal: negative cursor or dimensions"
  | Ok _ as ok -> ok

let path ~dir = Filename.concat dir file_name

let save ~dir j =
  (try
     if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let final = path ~dir in
  let tmp = final ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc (C.to_string journal j);
  output_char oc '\n';
  close_out oc;
  (* Atomic within the directory: a kill leaves either the previous
     checkpoint or this one, never a torn file. *)
  Sys.rename tmp final

let load ~dir =
  let file = path ~dir in
  if not (Sys.file_exists file) then
    Error (Printf.sprintf "no campaign journal at %s" file)
  else begin
    let ic = open_in file in
    let s =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    of_string s
  end

type spec = { seed : int; cases : int; trials : int }

let open_dir ?fresh dir =
  match
    Option.map
      (fun f -> create ~seed:f.seed ~cases:f.cases ~trials:f.trials)
      fresh
  with
  | exception Invalid_argument message -> Error message
  | Some j when not (Sys.file_exists (path ~dir)) ->
      save ~dir j;
      Ok j
  | _ -> load ~dir

let advance ?baselines ~dir j ~n =
  let ran = step ?baselines j ~n in
  if ran > 0 then save ~dir j;
  ran

(* The report deliberately excludes [batches] (and any other
   run-shape detail): an interrupted-and-resumed campaign must render
   bitwise the same report as an uninterrupted one. *)
let report_json j =
  Json.to_string ~minify:true
    (Json.Obj
       [
         ("schema_version", Json.Int schema_version);
         ("seed", Json.Int j.j_seed);
         ("cases", Json.Int j.j_cases);
         ("trials", Json.Int j.j_trials);
         ("trials_done", Json.Int j.j_cursor);
         ("ok", Json.Bool (ok j));
         ("classes", classes_json j.j_cells);
       ])

let pp ppf j =
  Format.fprintf ppf
    "campaign journal: seed %d, %d cases x %d classes x %d trials — %d/%d \
     trials done (%d batches)@."
    j.j_seed j.j_cases Trial.class_count j.j_trials j.j_cursor (total j)
    j.j_batches;
  List.iter
    (fun (name, (c : Trial.cell)) ->
      Format.fprintf ppf
        "  %-10s %5d trials: %d injected, %d masked, %d absorbed, %d \
         deg-wrong, %d silent, %d crashed@."
        name c.Trial.trials c.Trial.injected c.Trial.masked c.Trial.absorbed
        c.Trial.degraded_wrong c.Trial.silent_wrong c.Trial.crashed)
    j.j_cells
