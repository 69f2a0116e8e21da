(* The repair loop: diagnose -> propose -> validate -> rank.

   Candidates are tried in cost order (cheapest synchronization first)
   and the first one to survive the full validation gauntlet is the
   accepted fix — the cost model makes "first accepted" and "minimal
   accepted" the same thing.  Every stage is seeded and the simulator
   is deterministic, so two runs with the same seed produce the same
   verdict, the same fix and the same rejection trail. *)

type config = {
  max_candidates : int;  (** validation budget per kernel *)
  max_steps : int;
  shards : int;  (** shard count for the parity check *)
  seed : int;
}

let default_config =
  { max_candidates = 24; max_steps = 400_000; shards = 2; seed = 42 }

type fix = {
  description : string;
  kind : Candidates.kind;
  cost : float;
  sites : int list;
  kernel : Ptx.Ast.kernel;  (** the accepted patch, re-parsed from [ptx] *)
  ptx : string;  (** the printed artifact every validation stage ran *)
}

type verdict =
  | Already_clean  (** detector, predict and static analysis all agree *)
  | Fixed of fix
  | Unfixable  (** racy, but no candidate survived validation *)

type result = {
  verdict : verdict;
  diagnosis : Localize.t;
  candidates_total : int;  (** generated (post-dedup, pre-budget) *)
  candidates_tried : int;  (** entered validation, including the winner *)
  rejected : (string * string) list;  (** (candidate description, reason) *)
}

(* ---- telemetry ----------------------------------------------------- *)

let counter name help =
  Telemetry.Registry.counter ~help Telemetry.Registry.default name

let m_runs = counter "barracuda_repair_runs_total" "Repair engine invocations"

let m_fixed =
  counter "barracuda_repair_fixed_total" "Kernels repaired by an accepted fix"

let m_clean =
  counter "barracuda_repair_clean_total" "Repair no-ops on race-free kernels"

let m_unfixable =
  counter "barracuda_repair_unfixable_total"
    "Racy kernels no candidate fix survived validation for"

let m_tried =
  counter "barracuda_repair_candidates_tried_total"
    "Candidate fixes entering validation"

let m_rejected =
  counter "barracuda_repair_candidates_rejected_total"
    "Candidate fixes rejected by validation"

let incr = Telemetry.Metric.counter_incr

(* ---- the loop ------------------------------------------------------ *)

let repair ?(config = default_config) ~layout
    ~(setup : Simt.Machine.t -> int64 array) kernel =
  Telemetry.Span.with_ ~name:"repair" @@ fun () ->
  incr m_runs;
  let diagnosis =
    Localize.diagnose ~max_steps:config.max_steps ~layout ~setup kernel
  in
  if not diagnosis.Localize.racy then begin
    incr m_clean;
    {
      verdict = Already_clean;
      diagnosis;
      candidates_total = 0;
      candidates_tried = 0;
      rejected = [];
    }
  end
  else begin
    let ranked = Candidates.all ~diagnosis kernel in
    let candidates_total = List.length ranked in
    let budgeted = List.filteri (fun i _ -> i < config.max_candidates) ranked in
    let vconfig =
      {
        Validate.max_steps = config.max_steps;
        shards = config.shards;
        seed = config.seed;
      }
    in
    let rec search tried rejected = function
      | [] ->
          incr m_unfixable;
          {
            verdict = Unfixable;
            diagnosis;
            candidates_total;
            candidates_tried = tried;
            rejected = List.rev rejected;
          }
      | (c : Candidates.t) :: rest -> (
          incr m_tried;
          match
            Validate.check ~config:vconfig ~layout ~setup
              ~baseline_bardiv:diagnosis.Localize.bardiv c.Candidates.kernel
          with
          | Validate.Accepted (kernel, ptx) ->
              incr m_fixed;
              {
                verdict =
                  Fixed
                    {
                      description = c.Candidates.description;
                      kind = c.Candidates.kind;
                      cost = Candidates.cost diagnosis.Localize.counts c;
                      sites = c.Candidates.sites;
                      kernel;
                      ptx;
                    };
                diagnosis;
                candidates_total;
                candidates_tried = tried + 1;
                rejected = List.rev rejected;
              }
          | Validate.Rejected reason ->
              incr m_rejected;
              search (tried + 1)
                ((c.Candidates.description, reason) :: rejected)
                rest)
    in
    search 0 [] budgeted
  end

(* ---- reporting helpers --------------------------------------------- *)

let verdict_name = function
  | Already_clean -> "already-clean"
  | Fixed _ -> "fixed"
  | Unfixable -> "unfixable"

(* Line diff between the original and repaired PTX (longest common
   subsequence), for walkthroughs and the CLI's --out patch file. *)
let diff_lines before after =
  let a = Array.of_list (String.split_on_char '\n' before) in
  let b = Array.of_list (String.split_on_char '\n' after) in
  let n = Array.length a and m = Array.length b in
  let lcs = Array.make_matrix (n + 1) (m + 1) 0 in
  for i = n - 1 downto 0 do
    for j = m - 1 downto 0 do
      lcs.(i).(j) <-
        (if a.(i) = b.(j) then 1 + lcs.(i + 1).(j + 1)
         else max lcs.(i + 1).(j) lcs.(i).(j + 1))
    done
  done;
  let buf = Buffer.create 256 in
  let rec go i j =
    if i < n && j < m && a.(i) = b.(j) then begin
      Buffer.add_string buf (Printf.sprintf "  %s\n" a.(i));
      go (i + 1) (j + 1)
    end
    else if j < m && (i = n || lcs.(i).(j + 1) >= lcs.(i + 1).(j)) then begin
      Buffer.add_string buf (Printf.sprintf "+ %s\n" b.(j));
      go i (j + 1)
    end
    else if i < n then begin
      Buffer.add_string buf (Printf.sprintf "- %s\n" a.(i));
      go (i + 1) j
    end
  in
  go 0 0;
  Buffer.contents buf

let patch_of ~original (fix : fix) =
  diff_lines (Ptx.Printer.kernel_to_string original) fix.ptx
