type expected =
  | Race_free
  | Shared_races of int
  | Global_races of int

type paper_row = {
  p_static_insns : int;
  p_total_threads : int;
  p_global_mem_mb : int;
  p_races : string;
}

type t = {
  name : string;
  suite : string;
  layout : Vclock.Layout.t;
  kernel : Ptx.Ast.kernel;
  setup : Simt.Machine.t -> int64 array;
  expected : expected;
  paper : paper_row;
}

let machine w = Simt.Machine.create ~layout:w.layout ()

let run_native ?max_steps w =
  let m = machine w in
  let args = w.setup m in
  Simt.Machine.launch ?max_steps m w.kernel args

let run ?max_steps ?inst w =
  let m = machine w in
  let args = w.setup m in
  Gpu_runtime.Session.run_stream ?max_steps ?inst ~machine:m w.kernel args

module Loc_set = Set.Make (struct
  type t = Gtrace.Loc.t

  let compare = Gtrace.Loc.compare
end)

(* Racy locations are counted at word (4-byte) granularity — the shadow
   is byte-granular but every workload accesses 4-byte elements — and
   shared-memory locations are deduplicated across blocks (the same
   static shared cell racing in every block is one finding, as Table 1
   counts races, not block instances). *)
let word_loc loc =
  let loc = Gtrace.Loc.with_addr loc (loc.Gtrace.Loc.addr / 4 * 4) in
  match loc.Gtrace.Loc.space with
  | Ptx.Ast.Shared -> Gtrace.Loc.shared ~block:0 loc.Gtrace.Loc.addr
  | Ptx.Ast.Global | Ptx.Ast.Local | Ptx.Ast.Param -> loc

let racy_locs_by_space report =
  List.fold_left
    (fun (shared, global) err ->
      match err with
      | Barracuda.Report.Race r -> (
          let loc = word_loc r.Barracuda.Report.loc in
          match loc.Gtrace.Loc.space with
          | Ptx.Ast.Shared -> (Loc_set.add loc shared, global)
          | Ptx.Ast.Global -> (shared, Loc_set.add loc global)
          | Ptx.Ast.Local | Ptx.Ast.Param -> (shared, global))
      | Barracuda.Report.Barrier_divergence _ -> (shared, global))
    (Loc_set.empty, Loc_set.empty)
    (Barracuda.Report.errors report)

let racy_word_counts report =
  let shared, global = racy_locs_by_space report in
  (Loc_set.cardinal shared, Loc_set.cardinal global)

let races_match w report =
  let shared, global = racy_locs_by_space report in
  let ns = Loc_set.cardinal shared and ng = Loc_set.cardinal global in
  match w.expected with
  | Race_free -> ns = 0 && ng = 0
  | Shared_races n -> ns >= n && ng = 0
  | Global_races n -> ng >= n && ns = 0

let total_threads w = Vclock.Layout.total_threads w.layout

let pp_expected ppf = function
  | Race_free -> Format.pp_print_string ppf "race-free"
  | Shared_races n -> Format.fprintf ppf "%d shared" n
  | Global_races n -> Format.fprintf ppf "%d global" n
