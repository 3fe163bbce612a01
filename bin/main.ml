(* burstsim — command-line driver for the ICDCS 2000 TCP-burstiness
   reproduction. Subcommands regenerate the paper's tables and figures or
   run custom experiments. *)

open Cmdliner

let std = Format.std_formatter

(* ------------------------------------------------------------------ *)
(* Shared options                                                      *)

let duration =
  let doc = "Total simulated time per run, in seconds (Table 1: 200)." in
  Arg.(value & opt float 200. & info [ "duration" ] ~docv:"SECONDS" ~doc)

let seed =
  let doc = "Base RNG seed; every run derives from it deterministically." in
  Arg.(value & opt int 0x1CDC5 & info [ "seed" ] ~docv:"INT" ~doc)

let fast =
  let doc =
    "Reduced scale: 60 s runs and a sparser client sweep. Roughly 10x faster; \
     shapes are preserved, absolute counts shrink."
  in
  Arg.(value & flag & info [ "fast" ] ~doc)

let clients_list =
  let doc = "Comma-separated client counts to sweep." in
  Arg.(value & opt (some (list int)) None & info [ "clients" ] ~docv:"N,N,..." ~doc)

let base_config ~duration ~seed ~fast =
  let cfg = { Burstcore.Config.default with seed = Int64.of_int seed } in
  let cfg =
    if fast then { cfg with duration_s = 60.; warmup_s = 5. }
    else { cfg with duration_s = duration }
  in
  (* Keep the warm-up inside short custom durations. *)
  { cfg with warmup_s = Stdlib.min cfg.warmup_s (cfg.duration_s /. 4.) }

(* Print one "burstsim: ..." line on stderr and exit 1. *)
let fail fmt =
  Printf.ksprintf
    (fun msg ->
      Format.eprintf "burstsim: %s@." msg;
      exit 1)
    fmt

(* Reject a bad configuration before any run starts: one
   [Config.validate] of every config the command will run, the field it
   names mapped back to the flag that set it. *)
let check_configs cfgs =
  List.iter
    (fun (cfg : Burstcore.Config.t) ->
      (try Burstcore.Config.validate cfg
       with Invalid_argument msg ->
         let flag, bound, got =
           match msg with
           | "Config.validate: clients" -> ("--clients", ">= 1", float cfg.clients)
           | "Config.validate: duration_s" ->
               ( "--duration",
                 Printf.sprintf "> 0 and < %g" Burstcore.Config.horizon_s,
                 cfg.duration_s )
           | "Config.validate: shards" -> ("--shards", ">= 0", float cfg.shards)
           | "Config.validate: background" ->
               ("--background", ">= 0", float cfg.background)
           | _ -> fail "%s" msg
         in
         fail "%s must be %s (got %g)" flag bound got))
    cfgs

let with_clients_each (cfg : Burstcore.Config.t) counts =
  List.map (fun clients -> { cfg with clients }) counts

let sweep_counts (cfg : Burstcore.Config.t) ~fast ~clients_list =
  let counts =
    match clients_list with
    | Some ns -> ns
    | None ->
        if fast then [ 5; 15; 25; 30; 36; 39; 42; 50; 60 ]
        else Burstcore.Figures.default_client_counts
  in
  check_configs (with_clients_each cfg counts);
  counts

let scenario_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "udp" -> Ok Burstcore.Scenario.udp
    | "reno" -> Ok Burstcore.Scenario.reno
    | "reno-red" | "reno/red" -> Ok Burstcore.Scenario.reno_red
    | "reno-delack" | "reno/delack" -> Ok Burstcore.Scenario.reno_delack
    | "vegas" -> Ok Burstcore.Scenario.vegas
    | "vegas-red" | "vegas/red" -> Ok Burstcore.Scenario.vegas_red
    | "tahoe" -> Ok Burstcore.Scenario.tahoe
    | "newreno" -> Ok Burstcore.Scenario.newreno
    | "reno-ecn" | "reno/ecn" -> Ok Burstcore.Scenario.reno_ecn
    | "vegas-ecn" | "vegas/ecn" -> Ok Burstcore.Scenario.vegas_ecn
    | "reno-ared" | "reno/ared" -> Ok Burstcore.Scenario.reno_ared
    | "vegas-ared" | "vegas/ared" -> Ok Burstcore.Scenario.vegas_ared
    | "sack" -> Ok Burstcore.Scenario.sack
    | "sack-red" | "sack/red" -> Ok Burstcore.Scenario.sack_red
    | "reno-sfq" | "reno/sfq" -> Ok Burstcore.Scenario.reno_sfq
    | "vegas-sfq" | "vegas/sfq" -> Ok Burstcore.Scenario.vegas_sfq
    | _ -> Error (`Msg (Printf.sprintf "unknown scenario %S" s))
  in
  let print ppf s = Format.pp_print_string ppf (Burstcore.Scenario.label s) in
  Arg.conv (parse, print)

let progress label = Format.eprintf "running %s...@." label

let jobs =
  let doc =
    "Fan independent simulation points across $(docv) domains. Results are \
     bit-identical for every value; only wall-clock time changes. The default \
     1 runs everything sequentially on the calling domain."
  in
  let jobs_conv =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 1 -> Ok n
      | Some _ -> Error (`Msg "JOBS must be at least 1")
      | None -> Error (`Msg (Printf.sprintf "invalid job count %S" s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  Arg.(value & opt jobs_conv 1 & info [ "j"; "jobs" ] ~docv:"JOBS" ~doc)

(* ------------------------------------------------------------------ *)
(* Telemetry options (shared by the simulation subcommands)            *)

type tele_opts = {
  report_out : string option; (* None = off, Some "-" = stderr *)
  trace_out : string option;
  record_out : string option;
  burst_out : string option;
  want_progress : bool;
}

let tele_term =
  let report_out =
    let doc =
      "Collect run telemetry (phase timings, event counts, queue high-water \
       marks, events/sec) and write the JSON report to $(docv), or to stderr \
       when $(docv) is omitted."
    in
    Arg.(
      value
      & opt ~vopt:(Some "-") (some string) None
      & info [ "telemetry" ] ~docv:"FILE" ~doc)
  in
  let trace_out =
    let doc =
      "Write every simulation event (packet, TCP congestion decision, queue \
       decision) as one NDJSON line to $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)
  in
  let record_out =
    let doc =
      "Record every simulation event plus lifecycle records (congestion \
       phases, RTT samples, receiver reordering, run markers) in the binary \
       flight-recorder format to $(docv); query the file with the 'trace \
       decode/stats/grep/spans' subcommands. Composes with --jobs; --trace-out \
       writes the parity part of the same records as NDJSON."
    in
    Arg.(
      value & opt (some string) None & info [ "record-out" ] ~docv:"FILE" ~doc)
  in
  let burst_out =
    let doc =
      "Attach the streaming multi-timescale burstiness aggregator \
       (per-scale c.o.v. and index of dispersion, wavelet logscale diagram, \
       queue-oscillation detector) to every run and write the per-run \
       summaries as one JSON document to $(docv). Composes with --jobs; \
       rows appear in input order."
    in
    Arg.(value & opt (some string) None & info [ "burst-out" ] ~docv:"FILE" ~doc)
  in
  let want_progress =
    let doc = "Report per-run progress with an ETA on stderr." in
    Arg.(value & flag & info [ "progress" ] ~doc)
  in
  Term.(
    const (fun report_out trace_out record_out burst_out want_progress ->
        { report_out; trace_out; record_out; burst_out; want_progress })
    $ report_out $ trace_out $ record_out $ burst_out $ want_progress)

(* Run [f] with a worker team of [jobs] domains, or without one when
   sequential. *)
let with_jobs ~jobs f =
  if jobs <= 1 then f None
  else Parallel.Pool.Team.with_team ~domains:jobs (fun team -> f (Some team))

(* Open an output file, or exit 1 with one message. Every file a
   command writes is opened this way before its first run, so a bad path
   fails before any simulation; [write_sink] fills it after the runs. *)
let open_sink path =
  try (path, open_out path) with Sys_error msg -> fail "cannot open %s" msg

let write_sink (path, oc) write =
  try
    write oc;
    close_out oc
  with Sys_error msg -> fail "cannot write %s: %s" path msg

(* The --telemetry report's file; bare --telemetry reports on stderr. *)
let report_file opts =
  match opts.report_out with Some "-" -> None | path -> path

(* The output files are all open at once, so no two flags, a command's
   own [outs] included, may name one file. Checked before any is
   opened. *)
let check_outputs ?(outs = []) opts =
  let named =
    List.filter_map
      (fun (flag, path) -> Option.map (fun p -> (flag, p)) path)
      ([
         ("--record-out", opts.record_out);
         ("--trace-out", opts.trace_out);
         ("--burst-out", opts.burst_out);
         ("--telemetry", report_file opts);
       ]
      @ outs)
  in
  List.iteri
    (fun i (flag, path) ->
      List.iteri
        (fun j (flag', path') ->
          if j > i && String.equal path path' then
            fail "%s and %s name the same file %s" flag flag' path)
        named)
    named

(* Build the probe + sinks a subcommand asked for, run [f probe notify]
   under the "total" phase, emit the recording, the report and the burst
   summaries of [burst result] (the run metrics [f] produced; runs
   without a burst summary are filtered out, so commands that return no
   metrics write an empty "runs" list), and return [f]'s result.
   [notify] is the after-each-run hook; it feeds the progress reporter. *)
let with_telemetry ~label ?(total_runs = 0) ?(burst = fun _ -> []) opts f =
  check_outputs opts;
  if
    opts.report_out = None && opts.trace_out = None && opts.record_out = None
    && opts.burst_out = None
    && not opts.want_progress
  then f None (fun (_ : string) -> ())
  else begin
    let probe = Telemetry.Probe.create () in
    if opts.burst_out <> None then
      Telemetry.Probe.set_burst probe (Some Telemetry.Burst.default_config);
    if opts.record_out <> None then
      Telemetry.Probe.set_recording probe Telemetry.Recorder.default_config;
    let trace_sink = Option.map open_sink opts.trace_out in
    let record_sink = Option.map open_sink opts.record_out in
    let report_sink = Option.map open_sink (report_file opts) in
    let burst_sink = Option.map open_sink opts.burst_out in
    Option.iter
      (fun (_, oc) ->
        ignore
          (Telemetry.Event_bus.subscribe probe.Telemetry.Probe.bus
             (Telemetry.Event_bus.ndjson_writer oc)))
      trace_sink;
    let reporter =
      if opts.want_progress && total_runs > 0 then
        Some (Telemetry.Progress.create ~total:total_runs ())
      else None
    in
    let notify point =
      match reporter with
      | Some r ->
          Telemetry.Progress.step r
            ~events:(Telemetry.Probe.events_total probe)
            point
      | None -> ()
    in
    let result =
      Fun.protect
        ~finally:(fun () -> Option.iter (fun (_, oc) -> close_out oc) trace_sink)
        (fun () ->
          Telemetry.Probe.time (Some probe) "total" (fun () ->
              f (Some probe) notify))
    in
    (match reporter with Some r -> Telemetry.Progress.finish r | None -> ());
    let emit what sink write =
      Option.iter
        (fun ((path, _) as sink) ->
          write_sink sink write;
          Format.eprintf "wrote %s to %s@." what path)
        sink
    in
    let json j oc = output_string oc (Burstcore.Json.to_string j ^ "\n") in
    let report () =
      Telemetry.Report.to_json (Telemetry.Report.of_probe ~label probe)
    in
    emit "flight recording" record_sink (Telemetry.Probe.write_segments probe);
    if opts.report_out = Some "-" then
      prerr_endline (Burstcore.Json.to_string (report ()));
    emit "telemetry report" report_sink (fun oc -> json (report ()) oc);
    emit "burst summaries" burst_sink (fun oc ->
        json (Burstcore.Export.burst_to_json (burst result)) oc);
    result
  end

let sweep_metrics (sweep : Burstcore.Figures.sweep_result) =
  List.concat_map snd sweep

(* ------------------------------------------------------------------ *)
(* table1                                                              *)

let table1_cmd =
  let run duration seed fast tele =
    let cfg = base_config ~duration ~seed ~fast in
    check_configs [ cfg ];
    with_telemetry ~label:"table1" tele (fun _probe _notify ->
        Burstcore.Figures.table1 std cfg)
  in
  Cmd.v
    (Cmd.info "table1" ~doc:"Print the simulation parameters (Table 1).")
    Term.(const run $ duration $ seed $ fast $ tele_term)

(* ------------------------------------------------------------------ *)
(* fig N                                                               *)

let fig_number =
  let doc = "Figure number (2-13)." in
  Arg.(required & pos 0 (some int) None & info [] ~docv:"N" ~doc)

let render_sweep_figure ?pool ?probe ?notify n cfg counts =
  let sweep = Burstcore.Figures.run_sweep ?pool ?probe ?notify ~progress cfg counts in
  (match n with
  | 2 -> Burstcore.Figures.fig2 std sweep cfg
  | 3 -> Burstcore.Figures.fig3 std sweep
  | 4 -> Burstcore.Figures.fig4 std sweep
  | 13 -> Burstcore.Figures.fig13 std sweep
  | _ -> assert false);
  sweep

let n_paper_series = List.length Burstcore.Scenario.paper_series

let replicates_opt =
  let doc = "Independent seeds per point (figure 2 only)." in
  Arg.(value & opt int 1 & info [ "replicates" ] ~docv:"R" ~doc)

(* Like [check_configs]: one line naming the flag, before any run. A
   flag the figure would not read is rejected, not ignored. *)
let check_fig_flags n ~replicates ~clients_list =
  if replicates < 1 then fail "--replicates must be >= 1 (got %d)" replicates
  else if replicates > 1 && n <> 2 then
    fail "--replicates applies to figure 2 only (got figure %d); drop \
          --replicates" n
  else if
    clients_list <> None
    && List.exists (fun (k, _, _) -> k = n) Burstcore.Figures.cwnd_figures
  then
    fail "--clients applies to figures 2, 3, 4 and 13 only (got figure %d); \
          drop --clients" n

let fig_cmd =
  let run n duration seed fast clients_list replicates jobs tele =
    check_fig_flags n ~replicates ~clients_list;
    let cfg = base_config ~duration ~seed ~fast in
    let counts = sweep_counts cfg ~fast ~clients_list in
    let sweep_runs = n_paper_series * List.length counts in
    match n with
    | 2 when replicates > 1 ->
        with_jobs ~jobs (fun pool ->
            with_telemetry ~label:"fig 2 (replicated)"
              ~total_runs:(sweep_runs * replicates) tele (fun probe notify ->
                Burstcore.Figures.fig2_replicated ?pool ?probe ~notify std cfg
                  counts ~replicates))
    | 2 | 3 | 4 | 13 ->
        ignore
          (with_jobs ~jobs (fun pool ->
               with_telemetry
                 ~label:(Printf.sprintf "fig %d" n)
                 ~total_runs:sweep_runs ~burst:sweep_metrics tele
                 (fun probe notify ->
                   render_sweep_figure ?pool ?probe ~notify n cfg counts)))
    | _ -> (
        match
          List.find_opt
            (fun (k, _, _) -> k = n)
            Burstcore.Figures.cwnd_figures
        with
        | Some (k, scenario, clients) ->
            with_telemetry
              ~label:(Printf.sprintf "fig %d" k)
              ~total_runs:1 tele
              (fun probe notify ->
                Burstcore.Figures.fig_cwnd ?probe std cfg ~scenario ~clients
                  ~label:(Printf.sprintf "Figure %d" k);
                notify
                  (Printf.sprintf "%s n=%d"
                     (Burstcore.Scenario.label scenario)
                     clients))
        | None ->
            Format.eprintf "no such figure: %d (valid: 2-13)@." n;
            exit 1)
  in
  Cmd.v
    (Cmd.info "fig" ~doc:"Regenerate one figure of the paper.")
    Term.(
      const run $ fig_number $ duration $ seed $ fast $ clients_list
      $ replicates_opt $ jobs $ tele_term)

(* ------------------------------------------------------------------ *)
(* all                                                                 *)

let all_cmd =
  let run duration seed fast clients_list jobs tele =
    let cfg = base_config ~duration ~seed ~fast in
    let counts = sweep_counts cfg ~fast ~clients_list in
    let total_runs =
      (n_paper_series * List.length counts)
      + List.length Burstcore.Figures.cwnd_figures
    in
    with_jobs ~jobs @@ fun pool ->
    with_telemetry ~label:"all" ~total_runs ~burst:sweep_metrics tele
      (fun probe notify ->
        Burstcore.Figures.table1 std cfg;
        let sweep =
          Burstcore.Figures.run_sweep ?pool ?probe ~notify ~progress cfg counts
        in
        Format.fprintf std "@.";
        Burstcore.Figures.fig2 std sweep cfg;
        Format.fprintf std "@.";
        Burstcore.Figures.fig3 std sweep;
        Format.fprintf std "@.";
        Burstcore.Figures.fig4 std sweep;
        Format.fprintf std "@.";
        Burstcore.Figures.fig13 std sweep;
        List.iter
          (fun (k, scenario, clients) ->
            Format.fprintf std "@.";
            Burstcore.Figures.fig_cwnd ?probe std cfg ~scenario ~clients
              ~label:(Printf.sprintf "Figure %d" k);
            notify
              (Printf.sprintf "fig %d: %s n=%d" k
                 (Burstcore.Scenario.label scenario)
                 clients))
          Burstcore.Figures.cwnd_figures;
        sweep)
    |> ignore
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Regenerate every table and figure.")
    Term.(const run $ duration $ seed $ fast $ clients_list $ jobs $ tele_term)

(* ------------------------------------------------------------------ *)
(* run — one custom experiment                                         *)

let run_cmd =
  let scenario =
    let doc =
      "Scenario: udp, reno, reno-red, reno-delack, vegas, vegas-red, tahoe, \
       newreno, reno-ecn, vegas-ecn, reno-ared, vegas-ared, sack, sack-red, \
       reno-sfq, vegas-sfq."
    in
    Arg.(value & opt scenario_conv Burstcore.Scenario.reno & info [ "scenario" ] ~docv:"NAME" ~doc)
  in
  let clients =
    let doc = "Number of clients." in
    Arg.(value & opt int 30 & info [ "n"; "clients" ] ~docv:"N" ~doc)
  in
  let json =
    let doc = "Print the metrics as a JSON document instead of text." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let shards =
    let doc =
      "Parallelise this single run over $(docv) domains with the sharded \
       conservative-PDES engine. Results are bit-identical for every \
       $(docv) >= 1 with the same seed; 0 (the default) runs the classic \
       single-domain engine. Runs every scenario, UDP included. Composes \
       with --trace-out (shard traces are merged into one deterministic \
       stream) but not with --record-out."
    in
    Arg.(value & opt int 0 & info [ "shards" ] ~docv:"K" ~doc)
  in
  let background =
    let doc =
      "Add $(docv) background Reno flows to the bottleneck via the hybrid \
       fluid/packet engine: they are simulated as one mean-field ODE \
       coupled to the packet-level queue each quantum, so a million \
       background users cost O(1) work per simulated second. 0 (the \
       default) disables the coupling. Composes with --shards, \
       --trace-out and --burst-out."
    in
    Arg.(value & opt int 0 & info [ "background" ] ~docv:"M" ~doc)
  in
  let foreground =
    let doc =
      "Alias for --clients, named for hybrid runs: the number of \
       packet-level foreground flows alongside --background fluid flows. \
       Overrides --clients when both are given."
    in
    Arg.(value & opt (some int) None & info [ "foreground" ] ~docv:"K" ~doc)
  in
  let run scenario clients duration seed fast json shards background foreground
      tele =
    let clients = Option.value ~default:clients foreground in
    let cfg =
      { (base_config ~duration ~seed ~fast) with clients; shards; background }
    in
    check_configs [ cfg ];
    if shards > 0 && tele.record_out <> None then
      fail
        "--record-out needs the classic single-domain engine and cannot be \
         combined with --shards; drop --shards, or use --trace-out (its \
         NDJSON stream is merged deterministically across shard domains)";
    let m =
      with_telemetry ~label:(Burstcore.Scenario.label scenario)
        ~total_runs:1 ~burst:(fun m -> [ m ]) tele (fun probe notify ->
          let m = Burstcore.Run.run ?probe ~trace_clients:[ 0 ] cfg scenario in
          notify
            (Printf.sprintf "%s n=%d" (Burstcore.Scenario.label scenario) clients);
          m)
    in
    if json then
      Format.fprintf std "%s@."
        (Burstcore.Json.to_string
           (Burstcore.Json.Obj
              [
                ("config", Burstcore.Export.config_to_json cfg);
                ("metrics", Burstcore.Export.metrics_to_json m);
              ]))
    else begin
      Format.fprintf std "%a@." Burstcore.Metrics.pp_row m;
      Format.fprintf std
        "offered=%d sent=%d retransmits=%d fast_rtx=%d gateway arrivals=%d drops=%d@."
        m.Burstcore.Metrics.offered m.Burstcore.Metrics.segments_sent
        m.Burstcore.Metrics.retransmits m.Burstcore.Metrics.fast_retransmits
        m.Burstcore.Metrics.gateway_arrivals m.Burstcore.Metrics.gateway_drops
    end
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one scenario and print its metrics.")
    Term.(
      const run $ scenario $ clients $ duration $ seed $ fast $ json $ shards
      $ background $ foreground $ tele_term)

(* ------------------------------------------------------------------ *)
(* trace — packet-level event trace of the bottleneck                  *)

(* --- trace query subcommands: read a --record-out file back --- *)

let recording_pos =
  let doc = "Flight recording written by --record-out." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)

let query_out =
  let doc = "Output file; stdout when omitted." in
  Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)

let read_recording path =
  let ic =
    try open_in_bin path with Sys_error msg -> fail "cannot read %s" msg
  in
  match
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> Telemetry.Recorder.read_segments ic)
  with
  | [] -> fail "%s: empty recording" path
  | segments -> segments
  | exception Failure msg -> fail "%s: %s" path msg

let with_query_out out f =
  match out with
  | None -> f stdout
  | Some path ->
      let _, oc = open_sink path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

(* Every record of every segment in file order, with its segment's
   string lookup. *)
let iter_records segments f =
  List.iter
    (fun seg ->
      let lookup = Telemetry.Recorder.seg_lookup seg in
      Telemetry.Recorder.iter_segment seg (fun ~seq:_ words off ->
          f lookup words off))
    segments

let trace_decode_cmd =
  let run file out =
    let segments = read_recording file in
    with_query_out out (fun oc ->
        let write = Telemetry.Record.ndjson_writer oc in
        iter_records segments (fun lookup words off -> write ~lookup words off))
  in
  Cmd.v
    (Cmd.info "decode"
       ~doc:
         "Decode a flight recording to NDJSON, one event per line. Parity \
          events serialize byte-identically to what --trace-out writes for \
          the same run.")
    Term.(const run $ recording_pos $ query_out)

let trace_stats_cmd =
  let run file =
    let segments = read_recording file in
    List.iter
      (fun seg ->
        let counts = Array.make (Telemetry.Record.max_kind + 1) 0 in
        let first = ref max_int and last = ref min_int and total = ref 0 in
        Telemetry.Recorder.iter_segment seg (fun ~seq:_ words off ->
            incr total;
            let tick = words.(off) and kind = words.(off + 1) in
            if tick < !first then first := tick;
            if tick > !last then last := tick;
            if kind >= 0 && kind < Array.length counts then
              counts.(kind) <- counts.(kind) + 1);
        Format.fprintf std "segment %S@." (Telemetry.Recorder.seg_label seg);
        Option.iter
          (fun l ->
            Format.fprintf std "  lane 0: %d recorded, %d retained, %d dropped@."
              (Telemetry.Recorder.read_lane_total l)
              (Telemetry.Recorder.read_lane_retained l)
              (Telemetry.Recorder.read_lane_dropped l))
          (Telemetry.Recorder.seg_lane seg);
        if !total > 0 then
          Format.fprintf std "  ticks %.6f .. %.6f s (%d records)@."
            (Telemetry.Record.time_of_tick !first)
            (Telemetry.Record.time_of_tick !last)
            !total;
        Array.iteri
          (fun kind n ->
            if n > 0 then
              Format.fprintf std "  %-20s %d@."
                (Telemetry.Record.kind_label kind)
                n)
          counts)
      segments
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Summarize a flight recording: per-segment record and drop \
          accounting, tick range and record counts by kind.")
    Term.(const run $ recording_pos)

let trace_grep_cmd =
  let flow_opt =
    let doc = "Only records of flow $(docv)." in
    Arg.(value & opt (some int) None & info [ "flow" ] ~docv:"N" ~doc)
  in
  let kind_opt =
    let doc =
      "Only records of kind $(docv) (a kind label as printed by 'trace \
       stats', e.g. packet_drop or tcp_phase)."
    in
    Arg.(value & opt (some string) None & info [ "kind" ] ~docv:"KIND" ~doc)
  in
  let from_opt =
    let doc = "Only records at or after $(docv) simulated seconds." in
    Arg.(value & opt (some float) None & info [ "from" ] ~docv:"SECONDS" ~doc)
  in
  let to_opt =
    let doc = "Only records at or before $(docv) simulated seconds." in
    Arg.(value & opt (some float) None & info [ "to" ] ~docv:"SECONDS" ~doc)
  in
  let run file flow kind tfrom tto out =
    let kind_code =
      match kind with
      | None -> None
      | Some label -> (
          match Telemetry.Record.kind_of_label label with
          | Some c -> Some c
          | None -> fail "unknown record kind %S" label)
    in
    let segments = read_recording file in
    with_query_out out (fun oc ->
        let write = Telemetry.Record.ndjson_writer oc in
        iter_records segments (fun lookup words off ->
            let tick = words.(off) in
            let t = Telemetry.Record.time_of_tick tick in
            let keep =
              (match flow with None -> true | Some f -> words.(off + 2) = f)
              && (match kind_code with
                 | None -> true
                 | Some k -> words.(off + 1) = k)
              && (match tfrom with None -> true | Some s -> t >= s)
              && match tto with None -> true | Some s -> t <= s
            in
            if keep then write ~lookup words off))
  in
  Cmd.v
    (Cmd.info "grep"
       ~doc:
         "Filter a flight recording by flow, kind and time range; print \
          matches as NDJSON.")
    Term.(
      const run $ recording_pos $ flow_opt $ kind_opt $ from_opt $ to_opt
      $ query_out)

let trace_spans_cmd =
  let prometheus =
    let doc =
      "Print the span histograms in Prometheus text exposition format \
       instead of the summary table."
    in
    Arg.(value & flag & info [ "prometheus" ] ~doc)
  in
  let run file prometheus =
    let segments = read_recording file in
    let registry = Telemetry.Registry.create () in
    List.iter (fun seg -> Telemetry.Spans.of_segment ~registry seg) segments;
    if prometheus then print_string (Telemetry.Registry.to_prometheus registry)
    else
      List.iter
        (fun (name, h) ->
          let n = Telemetry.Registry.observations h in
          if n = 0 then Format.fprintf std "%-18s no samples@." name
          else
            Format.fprintf std "%-18s n=%-8d p50=%.6gs p99=%.6gs@." name n
              (Telemetry.Registry.p50 h) (Telemetry.Registry.p99 h))
        (Telemetry.Spans.histograms registry)
  in
  Cmd.v
    (Cmd.info "spans"
       ~doc:
         "Derive lifecycle spans (packet sojourn, RTT samples, congestion \
          phases) from a flight recording and print their distributions.")
    Term.(const run $ recording_pos $ prometheus)

(* One ns-style line per bottleneck packet event, e.g.
   "+ 12.345678 bottleneck flow=3 seq=127 1500B" ('+' arrival, 'd' drop,
   'r' delivery; "ack" in place of the seq for ACKs). True when a line
   was written. *)
let ns_trace_line oc = function
  | Telemetry.Event_bus.Packet p when String.equal p.link "bottleneck" ->
      let kind =
        match p.kind with
        | Telemetry.Event_bus.Arrival -> '+'
        | Telemetry.Event_bus.Drop -> 'd'
        | Telemetry.Event_bus.Depart -> 'r'
      in
      let seq =
        match p.seq with Some s -> Printf.sprintf "seq=%d" s | None -> "ack"
      in
      Printf.fprintf oc "%c %.6f %s flow=%d %s %dB\n" kind p.time p.link p.flow
        seq p.size_bytes;
      true
  | _ -> false

let trace_cmd =
  let scenario =
    let doc = "Scenario to trace." in
    Arg.(value & opt scenario_conv Burstcore.Scenario.reno & info [ "scenario" ] ~docv:"NAME" ~doc)
  in
  let clients =
    let doc = "Number of clients." in
    Arg.(value & opt int 20 & info [ "n"; "clients" ] ~docv:"N" ~doc)
  in
  let out =
    let doc = "Output file; stdout when omitted." in
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let run scenario clients out duration seed fast tele =
    let cfg = { (base_config ~duration ~seed ~fast) with clients } in
    check_configs [ cfg ];
    check_outputs ~outs:[ ("-o", out) ] tele;
    let oc = match out with Some path -> snd (open_sink path) | None -> stdout in
    let lines = ref 0 in
    let m =
      Fun.protect
        ~finally:(fun () -> if out <> None then close_out oc)
        (fun () ->
          with_telemetry ~label:(Burstcore.Scenario.label scenario)
            ~total_runs:1 ~burst:(fun m -> [ m ]) tele (fun probe notify ->
              (* The lines come from the bus replay of the run's records. *)
              let probe =
                match probe with Some p -> p | None -> Telemetry.Probe.create ()
              in
              ignore
                (Telemetry.Event_bus.subscribe probe.Telemetry.Probe.bus
                   (fun e -> if ns_trace_line oc e then incr lines));
              let m = Burstcore.Run.run ~probe cfg scenario in
              notify
                (Printf.sprintf "%s n=%d"
                   (Burstcore.Scenario.label scenario)
                   clients);
              m))
    in
    (match out with
    | Some path -> Format.eprintf "wrote %d events to %s@." !lines path
    | None -> ());
    Format.eprintf "%a@." Burstcore.Metrics.pp_row m
  in
  Cmd.group
    ~default:
      Term.(
        const run $ scenario $ clients $ out $ duration $ seed $ fast
        $ tele_term)
    (Cmd.info "trace"
       ~doc:
         "Run one scenario and emit an ns-style packet event trace of the \
          bottleneck link, or (with a subcommand) query a binary flight \
          recording written by --record-out.")
    [ trace_decode_cmd; trace_stats_cmd; trace_grep_cmd; trace_spans_cmd ]

(* ------------------------------------------------------------------ *)
(* burst — offline burstiness analysis of a recorded trace             *)

(* Sniff the 8-byte flight-recorder magic so one positional FILE serves
   both input formats. *)
let looks_like_recording path =
  match open_in_bin path with
  | exception Sys_error msg -> fail "cannot read %s" msg
  | ic ->
      let n = String.length Telemetry.Recorder.magic in
      let b = Bytes.create n in
      let len =
        Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input ic b 0 n)
      in
      len = n && String.equal (Bytes.sub_string b 0 n) Telemetry.Recorder.magic

let burst_cmd =
  let file =
    let doc =
      "Input trace: a binary flight recording written by --record-out, or an \
       NDJSON event trace written by --trace-out ($(b,-) reads NDJSON from \
       stdin). The format is detected from the file header."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let width =
    let doc =
      "Base bin width in seconds; dyadic timescales double from here. \
       Defaults to the paper's RTT bin."
    in
    Arg.(value & opt (some float) None & info [ "width" ] ~docv:"SECONDS" ~doc)
  in
  let origin =
    let doc = "Ignore arrivals before $(docv) simulated seconds (warm-up)." in
    Arg.(value & opt float 0. & info [ "origin" ] ~docv:"SECONDS" ~doc)
  in
  let levels =
    let doc = "Number of dyadic timescales to fold." in
    Arg.(
      value
      & opt int Telemetry.Burst.default_config.Telemetry.Burst.levels
      & info [ "levels" ] ~docv:"K" ~doc)
  in
  let link =
    let doc = "Link whose arrival process is analysed." in
    Arg.(value & opt string "bottleneck" & info [ "link" ] ~docv:"NAME" ~doc)
  in
  let all_packets =
    let doc = "Count pure ACKs too (default: data segments only)." in
    Arg.(value & flag & info [ "all-packets" ] ~doc)
  in
  let json =
    let doc = "Print the summary as a JSON document instead of text." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run file width origin levels link all_packets json out =
    let width =
      match width with
      | Some w -> w
      | None -> Burstcore.Config.rtt_prop_s Burstcore.Config.default
    in
    let burst =
      try Telemetry.Burst.create ~levels ~origin ~width ()
      with Invalid_argument msg -> fail "%s" msg
    in
    let osc = Telemetry.Burst.Osc.create () in
    let depth = [| 0. |] in
    let osc_fed = ref false in
    let last = ref origin in
    let feed t =
      Telemetry.Burst.observe burst t;
      if t > !last then last := t
    in
    if file <> "-" && looks_like_recording file then
      (* Recorded packet_arrival records carry the instantaneous queue
         depth, so the replay also drives the oscillation detector with
         per-arrival queue samples. *)
      iter_records (read_recording file) (fun lookup words off ->
          if
            words.(off + 1) = Telemetry.Record.packet_arrival
            && String.equal (lookup words.(off + 6)) link
            && (all_packets || words.(off + 5) <> Telemetry.Record.no_seq)
          then begin
            let t = Telemetry.Record.time_of_tick words.(off) in
            feed t;
            if t >= origin then begin
              osc_fed := true;
              depth.(0) <- float_of_int words.(off + 7);
              Telemetry.Burst.Osc.sample osc ~tick:words.(off) depth
            end
          end)
    else begin
      (* NDJSON packet events have no queue-depth field, so only the
         arrival-count aggregator runs. *)
      let ic =
        if file = "-" then stdin
        else
          try open_in file with Sys_error msg -> fail "cannot read %s" msg
      in
      let lineno = ref 0 in
      Fun.protect
        ~finally:(fun () -> if file <> "-" then close_in ic)
        (fun () ->
          try
            while true do
              let line = input_line ic in
              incr lineno;
              if String.length line > 0 then
                match Telemetry.Event_bus.of_ndjson_line line with
                | Error msg -> fail "%s:%d: %s" file !lineno msg
                | Ok
                    (Telemetry.Event_bus.Packet
                      { time; kind = Arrival; link = l; seq; _ })
                  when String.equal l link && (all_packets || seq <> None) ->
                    feed time
                | Ok _ -> ()
            done
          with End_of_file -> ())
    end;
    if Telemetry.Burst.total burst = 0 then
      Format.eprintf
        "burstsim: no arrivals matched link %S (try --link or --all-packets)@."
        link;
    Telemetry.Burst.advance burst ~upto:!last;
    let osc = if !osc_fed then Some osc else None in
    let s = Telemetry.Burst.summary ?osc burst in
    with_query_out out (fun oc ->
        if json then
          output_string oc
            (Burstcore.Json.to_string (Telemetry.Burst.summary_to_json s) ^ "\n")
        else begin
          let ppf = Format.formatter_of_out_channel oc in
          Format.fprintf ppf "%a@." Telemetry.Burst.pp_summary s;
          Format.pp_print_flush ppf ()
        end)
  in
  Cmd.v
    (Cmd.info "burst"
       ~doc:
         "Replay a recorded trace (binary flight recording or NDJSON event \
          stream) through the streaming multi-timescale burstiness \
          aggregator: per-scale c.o.v. and index of dispersion, the wavelet \
          logscale diagram with a Hurst slope, and — for flight recordings, \
          which carry per-arrival queue depths — the queue-oscillation \
          detector.")
    Term.(
      const run $ file $ width $ origin $ levels $ link $ all_packets $ json
      $ query_out)

(* ------------------------------------------------------------------ *)
(* selfsim — extension: heavy-tailed sources vs Poisson                *)

let selfsim_cmd =
  let run duration seed fast =
    let cfg = base_config ~duration ~seed ~fast in
    check_configs [ cfg ];
    Burstcore.Selfsim.report std cfg
  in
  Cmd.v
    (Cmd.info "selfsim"
       ~doc:
         "Extension: Hurst estimates for aggregated Poisson vs Pareto-on/off \
          traffic, connecting the paper to the self-similarity literature.")
    Term.(const run $ duration $ seed $ fast)

(* ------------------------------------------------------------------ *)
(* sync — extension: congestion-control synchronization               *)

let sync_cmd =
  let run duration seed fast clients_list =
    let cfg = base_config ~duration ~seed ~fast in
    let ns =
      match clients_list with Some ns -> ns | None -> [ 20; 30; 40; 50; 60 ]
    in
    let ablation_clients = 50 in
    check_configs (with_clients_each cfg (ns @ [ ablation_clients ]));
    Burstcore.Sync.report std cfg ns;
    Format.fprintf std "@.";
    Burstcore.Sync.desync_ablation std cfg ~clients:ablation_clients
  in
  Cmd.v
    (Cmd.info "sync"
       ~doc:
         "Extension: synchronization index of the TCP streams' congestion           decisions, plus the desynchronization ablation.")
    Term.(const run $ duration $ seed $ fast $ clients_list)

(* ------------------------------------------------------------------ *)
(* fluid — fluid approximation vs packet simulation                   *)

let fluid_cmd =
  let run duration seed fast clients_list =
    let cfg = base_config ~duration ~seed ~fast in
    let flows = match clients_list with Some ns -> ns | None -> [ 4; 8; 16 ] in
    check_configs (with_clients_each cfg flows);
    Burstcore.Fluid_compare.report std cfg flows
  in
  Cmd.v
    (Cmd.info "fluid"
       ~doc:
         "Extension: compare the Misra-Gong-Towsley Reno fluid model and           Bonald's Vegas equilibrium (the paper's reference [1] technique)           against greedy-flow packet simulations.")
    Term.(const run $ duration $ seed $ fast $ clients_list)

(* ------------------------------------------------------------------ *)
(* export — machine-readable sweep results                            *)

let export_cmd =
  let format =
    let doc = "Output format: json or csv." in
    Arg.(value & opt (enum [ ("json", `Json); ("csv", `Csv) ]) `Json
        & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let out =
    let doc = "Output file." in
    Arg.(required & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let run format out duration seed fast clients_list jobs tele =
    let cfg = base_config ~duration ~seed ~fast in
    let counts = sweep_counts cfg ~fast ~clients_list in
    check_outputs ~outs:[ ("-o", Some out) ] tele;
    let sink = open_sink out in
    let sweep =
      with_jobs ~jobs @@ fun pool ->
      with_telemetry ~label:"export"
        ~total_runs:(n_paper_series * List.length counts)
        ~burst:sweep_metrics tele
        (fun probe notify ->
          Burstcore.Figures.run_sweep ?pool ?probe ~notify ~progress cfg counts)
    in
    write_sink sink (fun oc ->
        output_string oc
          (match format with
          | `Json ->
              Burstcore.Json.to_string (Burstcore.Export.sweep_to_json cfg sweep)
          | `Csv -> Burstcore.Export.sweep_to_csv sweep));
    Format.eprintf "wrote %s@." out
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Run the paper sweep and write the results as JSON or CSV.")
    Term.(
      const run $ format $ out $ duration $ seed $ fast $ clients_list $ jobs
      $ tele_term)

(* ------------------------------------------------------------------ *)
(* parking — multi-hop fairness experiment                            *)

let parking_cmd =
  let run duration seed fast =
    let cfg = base_config ~duration ~seed ~fast in
    check_configs [ cfg ];
    Burstcore.Parking_lot.report std cfg
  in
  Cmd.v
    (Cmd.info "parking"
       ~doc:
         "Extension: parking-lot topology — one long flow crossing several           bottleneck hops against per-hop cross traffic.")
    Term.(const run $ duration $ seed $ fast)

(* ------------------------------------------------------------------ *)
(* twoway — bidirectional traffic / ACK compression                   *)

let twoway_cmd =
  let run duration seed fast clients_list =
    let cfg = base_config ~duration ~seed ~fast in
    let n =
      match clients_list with
      | None -> 30
      | Some [ n ] -> n
      | Some ns ->
          fail "--clients takes one count for twoway (got %d)" (List.length ns)
    in
    check_configs (with_clients_each cfg [ n ]);
    Burstcore.Twoway.report std (Burstcore.Config.with_clients cfg n)
  in
  Cmd.v
    (Cmd.info "twoway"
       ~doc:
         "Extension: add reverse-direction data flows so forward ACKs queue           behind them (ACK compression) and measure the forward burstiness.")
    Term.(const run $ duration $ seed $ fast $ clients_list)

(* ------------------------------------------------------------------ *)
(* report-check — validate a --telemetry report or a BENCH_*.json file  *)

let report_check_cmd =
  let file =
    let doc = "Report file: a --telemetry=FILE report or a BENCH_*.json file." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let run file =
    let ic =
      try open_in file with Sys_error msg -> fail "cannot read %s" msg
    in
    let contents =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let result, what =
      match Burstcore.Json.parse contents with
      | Error msg -> (Error msg, "report")
      | Ok j when Burstcore.Json.member "gates" j <> None ->
          (Telemetry.Report.validate_gates j, "bench report")
      | Ok j -> (Telemetry.Report.validate j, "telemetry report")
    in
    match result with
    | Ok () -> print_endline (what ^ " ok")
    | Error msg ->
        Format.eprintf "%s: invalid %s: %s@." file what msg;
        exit 1
  in
  Cmd.v
    (Cmd.info "report-check"
       ~doc:
         "Validate a JSON report: a document with a 'gates' list (every \
          BENCH_*.json file) must pass every gate; anything else is checked \
          as a --telemetry=FILE run report. Used by 'make check'.")
    Term.(const run $ file)

(* ------------------------------------------------------------------ *)

let main =
  Cmd.group
    (Cmd.info "burstsim" ~version:"1.22.0"
       ~doc:
         "Reproduction of 'On the Burstiness of the TCP Congestion-Control \
          Mechanism in a Distributed Computing System' (ICDCS 2000).")
    [ table1_cmd; fig_cmd; all_cmd; run_cmd; trace_cmd; burst_cmd; selfsim_cmd; sync_cmd; fluid_cmd; parking_cmd; twoway_cmd; export_cmd; report_check_cmd ]

let () = exit (Cmd.eval main)
