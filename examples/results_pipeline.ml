(* A results pipeline: run an experiment, inspect the packet trace, and
   export machine-readable output.

   Demonstrates the instrumentation surface of the library: a probe whose
   event bus replays the run's recorded events after the run, trace
   analysis over that stream (per-flow drops, delivered bytes), and the
   JSON/CSV exporters whose documents embed the full configuration for
   exact reproduction.

   Run with: dune exec examples/results_pipeline.exe *)

let () =
  let cfg =
    {
      (Burstcore.Config.with_clients Burstcore.Config.default 40) with
      Burstcore.Config.duration_s = 60.;
      warmup_s = 10.;
    }
  in
  let probe = Telemetry.Probe.create () in
  let events = ref 0 and bytes = ref 0 in
  let drops = Hashtbl.create 16 in
  ignore
    (Telemetry.Event_bus.subscribe probe.Telemetry.Probe.bus (function
      | Telemetry.Event_bus.Packet p when String.equal p.link "bottleneck" -> (
          incr events;
          match p.kind with
          | Telemetry.Event_bus.Drop ->
              Hashtbl.replace drops p.flow
                (1 + Option.value ~default:0 (Hashtbl.find_opt drops p.flow))
          | Telemetry.Event_bus.Depart ->
              if p.time >= 10. && p.time < cfg.Burstcore.Config.duration_s then
                bytes := !bytes + p.size_bytes
          | Telemetry.Event_bus.Arrival -> ())
      | _ -> ()));
  let metrics = Burstcore.Run.run ~probe cfg Burstcore.Scenario.reno in
  Format.printf "run: %a@.@." Burstcore.Metrics.pp_row metrics;

  (* --- trace analysis ------------------------------------------- *)
  Format.printf "trace: %d events on the bottleneck@." !events;
  let victims =
    Hashtbl.fold (fun flow n acc -> (flow, n) :: acc) drops []
    |> List.sort (fun (_, a) (_, b) -> Int.compare b a)
  in
  Format.printf "flows that lost packets: %d of %d@." (List.length victims)
    cfg.Burstcore.Config.clients;
  List.iteri
    (fun i (flow, n) ->
      if i < 5 then Format.printf "  client %-3d lost %d packets@." (flow + 1) n)
    victims;
  Format.printf "bytes through the bottleneck after warm-up: %.1f MB@.@."
    (float_of_int !bytes /. 1e6);

  (* --- machine-readable export ----------------------------------- *)
  let doc =
    Burstcore.Json.to_string
      (Burstcore.Json.Obj
         [
           ("config", Burstcore.Export.config_to_json cfg);
           ("metrics", Burstcore.Export.metrics_to_json metrics);
         ])
  in
  Burstcore.Export.write_file "results_pipeline.json" doc;
  Format.printf "wrote results_pipeline.json (%d bytes)@." (String.length doc);
  Format.printf "csv row:@.%s@.%s@." Burstcore.Export.csv_header
    (Burstcore.Export.metrics_to_csv_row metrics)
