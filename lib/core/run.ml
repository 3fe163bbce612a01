module Time = Sim_engine.Time
module Scheduler = Sim_engine.Scheduler

let run_classic ?probe ?(trace_clients = []) ?(sample_queue = false)
    ?(measure_sync = false) ?(prepare = fun (_ : Dumbbell.t) -> ()) cfg scenario
    =
  let time name f = Telemetry.Probe.time probe name f in
  let run_label =
    Printf.sprintf "%s n=%d" (Scenario.label scenario) cfg.Config.clients
  in
  (* One recorder per run: a kept segment when the probe records, a
     private parity recorder when only its bus listens. *)
  let recorder =
    match probe with
    | Some p -> Telemetry.Probe.run_recorder p ~label:run_label
    | None -> None
  in
  let net, sched, meter =
    time "setup" (fun () ->
        let net = Dumbbell.create ?recorder ~trace_clients cfg scenario in
        prepare net;
        let sched = Dumbbell.scheduler net in
        let bottleneck = Dumbbell.bottleneck net in
        (* Only the bottleneck records per-packet queue events. *)
        (match recorder with
        | Some r ->
            Netsim.Link.record bottleneck r;
            if Telemetry.Recorder.lifecycle r then begin
              let lane = Telemetry.Recorder.lane r 0 in
              let sid = Telemetry.Recorder.intern r run_label in
              Scheduler.set_instrument sched
                ~on_run_start:(fun clock ->
                  Telemetry.Recorder.record lane ~tick:(Time.to_ns clock)
                    ~kind:Telemetry.Record.run_start ~flow:(-1) ~a:0 ~b:0 ~c:0
                    ~sid ~depth:0)
                ~on_run_end:(fun clock fired ->
                  Telemetry.Recorder.record lane ~tick:(Time.to_ns clock)
                    ~kind:Telemetry.Record.run_end ~flow:(-1) ~a:fired ~b:0
                    ~c:0 ~sid ~depth:0)
            end
        | None -> ());
        let meter =
          Meter.attach ?probe ~sample_queue ~measure_sync ~sched
            ~pool:(Dumbbell.pool net) bottleneck cfg
        in
        Dumbbell.start_poisson cfg ~master:(Dumbbell.rng net)
          (Dumbbell.clients net);
        (net, sched, meter))
  in
  let run_wall, run_gc =
    let g0 = Telemetry.Perf.gc_read () in
    let t0 = Telemetry.Perf.wall_clock_s () in
    Scheduler.run ~until:(Time.of_sec cfg.Config.duration_s) sched;
    let dt = Telemetry.Perf.wall_clock_s () -. t0 in
    let gc = Telemetry.Perf.gc_since g0 in
    (match probe with
    | Some p -> Telemetry.Perf.add_s p.Telemetry.Probe.phases "run" dt
    | None -> ());
    (dt, gc)
  in
  Dumbbell.finish net (fun endpoints ->
      let metrics =
        time "collect" (fun () -> Meter.metrics meter scenario endpoints)
      in
      (* Exposition and lifecycle spans while the recorder is still live
         (tick counters restart per segment, so this must happen per
         run). *)
      Option.iter
        (fun p -> Meter.export ?recorder meter p ~label:run_label metrics)
        probe;
      (* The bus hears the run only now, from its recorded parity
         records, in the one pass over them that also folds the spans. *)
      (match (probe, recorder) with
      | Some p, Some r ->
          time "replay" (fun () ->
              Telemetry.Probe.replay ~spans:(Telemetry.Recorder.lifecycle r) p r)
      | _ -> ());
      Option.iter
        (fun p ->
          Meter.note_run meter p ~label:run_label ~wall_s:run_wall
            ~events:(Scheduler.events_processed sched)
            ~event_queue_hwm:(Scheduler.queue_high_water_mark sched)
            ~gc:run_gc)
        probe;
      metrics)

(* [cfg.shards] selects the engine: 0 keeps the classic single-domain
   scheduler (and its pinned trace digests); K >= 1 runs the sharded
   conservative-PDES engine. Both measure through {!Meter}; what is
   checked here is checked once for both, before anything is built.
   [prepare] hooks into the classic topology object, which the sharded
   engine does not build. *)
let run ?probe ?(trace_clients = []) ?sample_queue ?measure_sync ?prepare cfg
    scenario =
  List.iter
    (fun i ->
      if i < 0 || i >= cfg.Config.clients then
        invalid_arg
          (Printf.sprintf
             "Run.run: trace_clients index %d is out of range for %d client(s)"
             i cfg.Config.clients))
    trace_clients;
  if cfg.Config.shards >= 1 then begin
    if Option.is_some prepare then
      invalid_arg
        "Run.run: ?prepare hooks into the classic engine's topology; it is \
         not supported when cfg.shards >= 1";
    Pdes.run ?probe ~trace_clients ?sample_queue ?measure_sync cfg scenario
  end
  else
    run_classic ?probe ~trace_clients ?sample_queue ?measure_sync ?prepare cfg
      scenario
