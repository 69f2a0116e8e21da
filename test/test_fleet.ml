(* Fleet mode: the resumable campaign journal (schema versioning,
   atomic checkpoints, kill-and-resume determinism) and the background
   campaign daemon (duty cycle, yielding to paying work, resume across
   restarts). *)

module Journal = Campaign.Journal
module Daemon = Campaign.Daemon

let dir_prefix = Printf.sprintf "barracuda-fleet-%d-" (Unix.getpid ())
let journal_dir name =
  Filename.concat (Filename.get_temp_dir_name ()) (dir_prefix ^ name)

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter
        (fun f -> remove_tree (Filename.concat path f))
        (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* A fresh journal directory for [f], removed with its contents however
   [f] ends. *)
let with_tmp_dir name f =
  let dir = journal_dir name in
  remove_tree dir;
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

(* ---- journal format ---------------------------------------------- *)

let test_journal_roundtrip () =
  with_tmp_dir "roundtrip" @@ fun dir ->
  let j = Journal.create ~seed:7 ~cases:3 ~trials:2 in
  Alcotest.(check int) "total trials" (3 * 4 * 2) (Journal.total j);
  ignore (Journal.step j ~n:5);
  Journal.save ~dir j;
  match Journal.open_dir dir with
  | Error e -> Alcotest.failf "load: %s" e
  | Ok j' ->
      Alcotest.(check int) "cursor survives" 5 j'.Journal.j_cursor;
      Alcotest.(check int) "batches survive" 1 j'.Journal.j_batches;
      Alcotest.(check string) "report identical"
        (Journal.report_json j) (Journal.report_json j')

(* Bad dimensions are refused before anything is written, so no
   command leaves behind a journal that cannot run or resume. *)
let test_journal_dimensions_rejected () =
  List.iter
    (fun (name, cases, trials) ->
      with_tmp_dir name @@ fun dir ->
      let fresh = { Journal.seed = 1; cases; trials } in
      (match Journal.open_dir ~fresh dir with
      | Ok _ -> Alcotest.failf "%s: opened a journal" name
      | Error _ -> ());
      Alcotest.(check bool) (name ^ ": no journal written") false
        (Sys.file_exists (Journal.path ~dir)))
    [ ("trials0", 2, 0); ("trials-1", 2, -1); ("cases0", 0, 2) ]

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_journal_version_rejected () =
  with_tmp_dir "version" @@ fun dir ->
  let j = Journal.create ~seed:1 ~cases:1 ~trials:1 in
  Journal.save ~dir j;
  let path = Journal.path ~dir in
  (* A future format: only the version stamp is understood. *)
  write_file path
    (Printf.sprintf "{\"schema_version\":%d}\n" (Journal.schema_version + 1));
  match Journal.open_dir dir with
  | Ok _ -> Alcotest.fail "mismatched schema version must be rejected"
  | Error e ->
      (* Loud and versioned: the message names both versions. *)
      Alcotest.(check bool) ("names the file version: " ^ e) true
        (contains
           ~needle:
             (Printf.sprintf "version %d" (Journal.schema_version + 1))
           e);
      Alcotest.(check bool) ("names the expected version: " ^ e) true
        (contains
           ~needle:(Printf.sprintf "expected %d" Journal.schema_version)
           e)

(* A journal is untrusted input: a mutated one opens or fails with a
   message, and nothing escapes. *)
let prop_mutated_journal dir =
  let journal =
    lazy
      (let j = Journal.create ~seed:7 ~cases:1 ~trials:1 in
       ignore (Journal.step j ~n:2);
       Journal.save ~dir j;
       In_channel.with_open_bin (Journal.path ~dir) In_channel.input_all)
  in
  QCheck2.Test.make ~name:"mutated journals open or fail, never raise"
    ~count:300 Gen.gen_mutations (fun muts ->
      write_file (Journal.path ~dir) (Gen.mutate (Lazy.force journal) muts);
      match Journal.open_dir dir with Ok _ | Error _ -> true)

let test_campaign_report_carries_version () =
  let report =
    Campaign.run ~config:{ Campaign.seed = 3; quick = true; trials = 1 } ()
  in
  let line = Campaign.to_json report in
  let prefix =
    Printf.sprintf "{\"schema_version\":%d," Journal.schema_version
  in
  Alcotest.(check bool) "faults --json report starts with the version" true
    (String.length line >= String.length prefix
    && String.sub line 0 (String.length prefix) = prefix)

(* ---- kill-and-resume determinism --------------------------------- *)

(* A campaign interrupted at ANY trial boundary and resumed from its
   journal must produce bitwise the same merged report as an
   uninterrupted run: trials are pure functions of the seed tuple and
   the journal is just a cursor, so no trial can be lost or
   double-counted.  Kill points are randomized (seeded) and the resume
   goes through an actual save/load cycle — the same path a crashed
   process takes. *)
let test_kill_and_resume_determinism () =
  let seed = 7 and cases = 3 and trials = 2 in
  let reference =
    let j = Journal.create ~seed ~cases ~trials in
    let n = Journal.total j in
    ignore (Journal.step j ~n);
    Journal.report_json j
  in
  let total = cases * 4 * trials in
  let rng = Random.State.make [| 0xF1EE7 |] in
  for _ = 1 to 3 do
    let kill_at = 1 + Random.State.int rng (total - 1) in
    with_tmp_dir (Printf.sprintf "kill%d" kill_at) @@ fun dir ->
    (* run to the kill point in small checkpointed batches, as fleet
       and the daemon do *)
    let j = Journal.create ~seed ~cases ~trials in
    Journal.save ~dir j;
    let rec drive () =
      if j.Journal.j_cursor < kill_at then begin
        let n = min 3 (kill_at - j.Journal.j_cursor) in
        ignore (Journal.advance ~dir j ~n);
        drive ()
      end
    in
    drive ();
    (* "crash": drop the in-memory state, resume from disk *)
    match Journal.open_dir dir with
    | Error e -> Alcotest.failf "resume load: %s" e
    | Ok resumed ->
        Alcotest.(check int)
          (Printf.sprintf "cursor at kill point %d" kill_at)
          kill_at resumed.Journal.j_cursor;
        ignore (Journal.step resumed ~n:(Journal.total resumed));
        Alcotest.(check string)
          (Printf.sprintf "killed at %d/%d, resumed report is bitwise \
                           identical" kill_at total)
          reference
          (Journal.report_json resumed)
  done

(* ---- background daemon ------------------------------------------- *)

let rec wait_until ?(timeout_s = 20.0) f =
  if f () then true
  else if timeout_s <= 0.0 then false
  else begin
    Thread.delay 0.02;
    wait_until ~timeout_s:(timeout_s -. 0.02) f
  end

let daemon_config =
  {
    Daemon.seed = 11;
    cases = 2;
    trials = 1;
    batch = 3;
    duty = 1.0;  (* tests want speed, not politeness *)
  }

let test_daemon_yields_to_paying_work () =
  with_tmp_dir "yield" @@ fun dir ->
  match Daemon.start ~config:daemon_config ~load:(fun () -> 1) ~dir () with
  | Error e -> Alcotest.failf "start: %s" e
  | Ok d ->
      (* With paying work permanently present the sweep must not move. *)
      let paused =
        wait_until (fun () -> (Daemon.status d).Service.Protocol.ca_paused)
      in
      Thread.delay 0.1;
      let s = Daemon.status d in
      Daemon.stop d;
      Alcotest.(check bool) "reports paused" true paused;
      Alcotest.(check int) "no trials while loaded" 0
        s.Service.Protocol.ca_trials

let test_daemon_completes_and_resumes () =
  with_tmp_dir "complete" @@ fun dir ->
  (* Phase 1: run a few batches, then stop mid-campaign. *)
  (match Daemon.start ~config:daemon_config ~load:(fun () -> 0) ~dir () with
  | Error e -> Alcotest.failf "start: %s" e
  | Ok d ->
      let progressed =
        wait_until (fun () -> (Daemon.status d).Service.Protocol.ca_trials > 0)
      in
      Daemon.stop d;
      Alcotest.(check bool) "made progress" true progressed);
  let mid =
    match Journal.open_dir dir with
    | Ok j -> j.Journal.j_cursor
    | Error e -> Alcotest.failf "mid load: %s" e
  in
  (* Phase 2: a fresh daemon resumes the same journal and finishes. *)
  match Daemon.start ~config:daemon_config ~load:(fun () -> 0) ~dir () with
  | Error e -> Alcotest.failf "restart: %s" e
  | Ok d ->
      let finished =
        wait_until (fun () ->
            let s = Daemon.status d in
            s.Service.Protocol.ca_trials = s.Service.Protocol.ca_total)
      in
      let s = Daemon.status d in
      Daemon.stop d;
      Alcotest.(check bool) "completed after resume" true finished;
      Alcotest.(check bool) "resumed, not restarted" true
        (s.Service.Protocol.ca_trials >= mid);
      Alcotest.(check int) "zero silent-wrong" 0
        s.Service.Protocol.ca_silent_wrong;
      (* The resumed-through-restart report matches an uninterrupted
         in-memory run of the same campaign. *)
      let reference =
        let j = Journal.create ~seed:11 ~cases:2 ~trials:1 in
        ignore (Journal.step j ~n:(Journal.total j));
        Journal.report_json j
      in
      (match Journal.open_dir dir with
      | Ok j ->
          Alcotest.(check string) "report matches uninterrupted run"
            reference (Journal.report_json j);
          Alcotest.(check bool) "journal verdict ok" true (Journal.ok j)
      | Error e -> Alcotest.failf "final load: %s" e)

let suite =
  [
    Alcotest.test_case "journal save/load roundtrip" `Quick
      test_journal_roundtrip;
    Alcotest.test_case "journal schema version rejected" `Quick
      test_journal_version_rejected;
    Alcotest.test_case "journal dimensions rejected" `Quick
      test_journal_dimensions_rejected;
    Alcotest.test_case "faults report carries schema version" `Quick
      test_campaign_report_carries_version;
    Alcotest.test_case "kill-and-resume determinism" `Quick
      test_kill_and_resume_determinism;
    Alcotest.test_case "daemon yields to paying work" `Quick
      test_daemon_yields_to_paying_work;
    Alcotest.test_case "daemon completes and resumes" `Quick
      test_daemon_completes_and_resumes;
    (let name, speed, run =
       Gen.to_alcotest (prop_mutated_journal (journal_dir "mutated"))
     in
     ( name,
       speed,
       fun arg ->
         Fun.protect
           ~finally:(fun () -> remove_tree (journal_dir "mutated"))
           (fun () -> run arg) ));
    (* last: every test above removed its directory *)
    Alcotest.test_case "no journal directory left behind" `Quick (fun () ->
        Alcotest.(check (list string)) "leftover directories" []
          (List.filter
             (String.starts_with ~prefix:dir_prefix)
             (Array.to_list (Sys.readdir (Filename.get_temp_dir_name ())))));
  ]
