type t = { layout : Vclock.Layout.t; roles : Roles.t array }

let create ~layout roles = { layout; roles }
let roles t = t.roles

let loc_of ~(t : t) ~warp ~space ~addr =
  match space with
  | Ptx.Ast.Global -> Some (Loc.global addr)
  | Ptx.Ast.Shared ->
      Some (Loc.shared ~block:(Vclock.Layout.block_of_warp t.layout warp) addr)
  | Ptx.Ast.Local | Ptx.Ast.Param -> None

(* One op per byte for plain data accesses; base-address ops for
   synchronization. *)
let access_ops t (a : Simt.Event.mem_access) =
  match loc_of ~t ~warp:a.warp ~space:a.space ~addr:0 with
  | None -> []
  | Some loc0 ->
      let role = t.roles.(a.insn) in
      let lanes = Simt.Event.mask_lanes a.mask in
      let tid_of lane =
        Vclock.Layout.tid_of_warp_lane t.layout ~warp:a.warp ~lane
      in
      let per_lane lane =
        let tid = tid_of lane in
        let base = a.addrs.(lane) in
        let value = a.values.(lane) in
        let data_bytes mk =
          List.init a.width (fun i -> mk (Loc.with_addr loc0 (base + i)))
        in
        let sync_loc = Loc.with_addr loc0 base in
        match (a.kind, role) with
        | Simt.Event.Load, Roles.Plain ->
            data_bytes (fun loc -> Op.Rd { tid; loc })
        | Simt.Event.Store, Roles.Plain ->
            data_bytes (fun loc -> Op.Wr { tid; loc; value })
        | Simt.Event.Atomic _, Roles.Plain ->
            data_bytes (fun loc -> Op.Atm { tid; loc; value })
        | Simt.Event.Load, Roles.Acquire scope
        | Simt.Event.Atomic _, Roles.Acquire scope ->
            [ Op.Acq { tid; loc = sync_loc; scope } ]
        | Simt.Event.Store, Roles.Release scope
        | Simt.Event.Atomic _, Roles.Release scope ->
            [ Op.Rel { tid; loc = sync_loc; scope } ]
        | Simt.Event.Atomic _, Roles.Acquire_release scope ->
            [ Op.AcqRel { tid; loc = sync_loc; scope } ]
        (* Role/kind mismatches (e.g. a load classified as a release
           because the classifier looked at a different instruction)
           cannot happen: [Roles.classify] keys on the instruction kind.
           Treat defensively as plain. *)
        | Simt.Event.Load, (Roles.Release _ | Roles.Acquire_release _) ->
            data_bytes (fun loc -> Op.Rd { tid; loc })
        | Simt.Event.Store, (Roles.Acquire _ | Roles.Acquire_release _) ->
            data_bytes (fun loc -> Op.Wr { tid; loc; value })
      in
      List.concat_map per_lane lanes
      @ [ Op.Endi { warp = a.warp; mask = a.mask } ]

let feed t = function
  | Simt.Event.Access a -> access_ops t a
  | Simt.Event.Fence _ -> []
  | Simt.Event.Branch_if { warp; then_mask; else_mask; _ } ->
      [ Op.If { warp; then_mask; else_mask } ]
  | Simt.Event.Branch_else { warp; mask } -> [ Op.Else { warp; mask } ]
  | Simt.Event.Branch_fi { warp; mask } -> [ Op.Fi { warp; mask } ]
  | Simt.Event.Barrier { block } -> [ Op.Bar { block } ]
  | Simt.Event.Barrier_divergence _ -> []
  | Simt.Event.Kernel_done -> []

let trace_of_events t events = List.concat_map (feed t) events

let run ?max_steps ?roles ~layout machine kernel args =
  let roles =
    match roles with Some r -> r | None -> Roles.classify kernel
  in
  let t = create ~layout roles in
  let ops = ref [] in
  let on_event e = ops := List.rev_append (feed t e) !ops in
  let result = Simt.Machine.launch ?max_steps machine kernel args ~on_event in
  (List.rev !ops, result)
