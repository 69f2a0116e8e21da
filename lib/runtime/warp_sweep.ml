module Report = Barracuda.Report

type verdict = { warp_size : int; races : int; racy_locations : int }
type result = { verdicts : verdict list; latent : bool }

let sweep ~layout ~setup kernel =
  let tpb = layout.Vclock.Layout.threads_per_block in
  let sizes =
    List.sort_uniq Int.compare [ layout.Vclock.Layout.warp_size; 4; 8; 16; 32 ]
    |> List.filter (fun ws ->
           ws >= 1 && ws <= tpb && ws <= Barracuda.Wire.max_lanes)
  in
  let verdicts =
    List.map
      (fun warp_size ->
        let lay =
          Vclock.Layout.make ~warp_size ~threads_per_block:tpb
            ~blocks:layout.Vclock.Layout.blocks
        in
        let machine = Simt.Machine.create ~layout:lay () in
        let args = setup machine in
        let report =
          (Session.run_stream ~machine kernel args).Session.sr_report
        in
        {
          warp_size;
          races = Report.race_count report;
          racy_locations = Report.racy_locations report;
        })
      sizes
  in
  let latent =
    match verdicts with
    | [] -> false
    | v :: rest -> List.exists (fun v' -> v'.races > 0 <> (v.races > 0)) rest
  in
  { verdicts; latent }

let pp ppf r =
  List.iter
    (fun v ->
      Format.fprintf ppf "warp %2d: %s@." v.warp_size
        (if v.races = 0 then "race-free"
         else Printf.sprintf "%d races (%d locations)" v.races v.racy_locations))
    r.verdicts;
  if r.latent then
    Format.fprintf ppf
      "LATENT WARP-SIZE ASSUMPTION: the verdict changes with warp size@."
