let sink_of_engine engine =
  {
    Gpu_runtime.Session.feed = Engine.broadcast engine;
    quiesce = (fun () -> Engine.quiesce engine);
    sink_report = (fun ~max_reports -> Engine.report engine ~max_reports);
    finish = (fun () -> Engine.finish engine);
    abort = (fun () -> Engine.abort engine);
    detect_ns = (fun () -> Engine.detect_ns engine);
    sink_records = (fun () -> Engine.records engine);
  }

let sink ?fault ?config ?plan ~layout ~shards kernel =
  let plan =
    match plan with Some p -> p | None -> Static.Plan.of_kernel kernel
  in
  sink_of_engine (Engine.create ?fault ?config ~layout ~shards plan)

let sink_for ?config ?plan ~layout ~shards kernel =
  if shards <= 1 then None else Some (sink ?config ?plan ~layout ~shards kernel)
