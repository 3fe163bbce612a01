(* The benchmark harness: regenerates every table and figure of the paper
   (Table 1, Figures 2-13), runs the ablation studies and the
   self-similarity extension, and the gated sections that write the
   BENCH_*.json files. `dune exec bench/main.exe` runs everything at
   paper scale (~1 minute); `--fast` shrinks runs for smoke testing. *)

module Json = Burstcore.Json
module Report = Telemetry.Report

let std = Format.std_formatter

let fast = ref false
let only : string option ref = ref None

let usage = "main.exe [--fast] [--only SECTION]"

let args =
  [
    ("--fast", Arg.Set fast, " reduced scale (60 s runs, sparser sweep)");
    ( "--only",
      Arg.String (fun s -> only := Some s),
      " run one section: table1 | figures | cwnd | queue | ablations | selfsim | sync | fluid | parking | twoway | telemetry | parallel | pdes | alloc | flows | burst | hybrid" );
  ]

let section name = Format.fprintf std "@.==== %s ====@.@." name

let wants name = match !only with None -> true | Some s -> s = name

(* ------------------------------------------------------------------ *)
(* Paper tables and figures                                            *)

let config () =
  if !fast then { Burstcore.Config.default with duration_s = 60.; warmup_s = 20. }
  else Burstcore.Config.default

let sweep_counts () =
  if !fast then [ 5; 15; 25; 30; 36; 39; 42; 50; 60 ]
  else Burstcore.Figures.default_client_counts

let run_table1 () =
  section "Table 1";
  Burstcore.Figures.table1 std (config ())

let run_figures () =
  section "Figures 2, 3, 4, 13 (one sweep)";
  let cfg = config () in
  let progress label = Format.eprintf "  sweep: %s@." label in
  let sweep = Burstcore.Figures.run_sweep ~progress cfg (sweep_counts ()) in
  Burstcore.Figures.fig2 std sweep cfg;
  Format.fprintf std "@.";
  Burstcore.Figures.fig3 std sweep;
  Format.fprintf std "@.";
  Burstcore.Figures.fig4 std sweep;
  Format.fprintf std "@.";
  Burstcore.Figures.fig13 std sweep

let run_cwnd_figures () =
  section "Figures 5-12 (congestion-window evolution)";
  let cfg = config () in
  List.iter
    (fun (k, scenario, clients) ->
      Burstcore.Figures.fig_cwnd std cfg ~scenario ~clients
        ~label:(Printf.sprintf "Figure %d" k);
      Format.fprintf std "@.")
    Burstcore.Figures.cwnd_figures

let run_queue_occupancy () =
  section "Extension: gateway queue occupancy";
  Burstcore.Figures.queue_occupancy std (config ()) ~clients:30

let run_ablations () =
  section "Ablations";
  let cfg = config () in
  Burstcore.Ablation.buffer_sweep std cfg ~clients:45;
  Format.fprintf std "@.";
  Burstcore.Ablation.red_threshold_sweep std cfg ~clients:45;
  Format.fprintf std "@.";
  Burstcore.Ablation.vegas_alpha_beta_sweep std cfg ~clients:45;
  Format.fprintf std "@.";
  Burstcore.Ablation.cc_comparison std cfg [ 30; 45; 60 ];
  Format.fprintf std "@.";
  Burstcore.Ablation.ecn_comparison std cfg [ 45; 60 ];
  Format.fprintf std "@.";
  Burstcore.Ablation.latency std cfg [ 20; 40; 60 ];
  Format.fprintf std "@.";
  Burstcore.Ablation.cwnd_validation std cfg [ 30; 50 ];
  Format.fprintf std "@.";
  Burstcore.Ablation.pacing std cfg [ 30; 50 ]

let run_selfsim () =
  section "Extension: self-similarity";
  Burstcore.Selfsim.report std (config ())

let run_twoway () =
  section "Extension: two-way traffic (ACK compression)";
  Burstcore.Twoway.report std (Burstcore.Config.with_clients (config ()) 30)

let run_parking_lot () =
  section "Extension: parking-lot topology";
  Burstcore.Parking_lot.report std (config ())

let run_fluid () =
  section "Extension: fluid model vs packet simulation";
  Burstcore.Fluid_compare.report std (config ()) [ 4; 8; 16 ]

let run_sync () =
  section "Extension: congestion-control synchronization";
  let cfg = config () in
  Burstcore.Sync.report std cfg (if !fast then [ 30; 60 ] else [ 20; 30; 40; 50; 60 ]);
  Format.fprintf std "@.";
  Burstcore.Sync.desync_ablation std cfg ~clients:50

(* ------------------------------------------------------------------ *)
(* Gates: every BENCH_*.json file is written by [emit]                 *)

let gate name op bound measured =
  { Report.name; measured = Some measured; op; bound; spread = None; skip = None }

let skipped name op bound reason =
  { Report.name; measured = None; op; bound; spread = None; skip = Some reason }

let flag name ok = gate name Report.Eq 1. (if ok then 1. else 0.)
let zero name n = gate name Report.Eq 0. (float_of_int n)

let band name (lo, hi) x =
  [ gate (name ^ ".lo") Report.Ge lo x; gate (name ^ ".hi") Report.Le hi x ]

(* A timed gate carries the quartiles of its reps; [measured] is the
   median, and [Report.verdict] reads the quartile nearest the bound. *)
let timed_gate name op bound samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  let last = Array.length a - 1 in
  let q p =
    let x = p *. float_of_int last in
    let i = int_of_float x in
    a.(i) +. ((x -. float_of_int i) *. (a.(min last (i + 1)) -. a.(i)))
  in
  let median = q 0.5 in
  {
    (gate name op bound median) with
    spread = Some { Report.reps = last + 1; q1 = q 0.25; median; q3 = q 0.75 };
  }

(* Write [file] as the section's [fields] plus the machine descriptor and
   the gate list, print one verdict line per gate, and exit 1 when any
   gate fails — the same verdict `report-check FILE` reaches. *)
let emit ~file ~fields ~gates =
  let machine =
    Json.Obj
      [
        ("domains", Json.Int (Domain.recommended_domain_count ()));
        ("ocaml", Json.String Sys.ocaml_version);
        ("fast", Json.Bool !fast);
      ]
  in
  let doc =
    Json.Obj
      (("machine", machine)
      :: ("gates", Json.List (List.map Report.gate_to_json gates))
      :: fields)
  in
  Burstcore.Export.write_file file (Json.to_string doc ^ "\n");
  Format.fprintf std "@.%-46s %12s  %-12s %s@." "gate" "measured" "bound"
    "verdict";
  let failed =
    List.filter
      (fun g ->
        let verdict, failed =
          match Report.verdict g with
          | Report.Pass -> ("ok", false)
          | Report.Skipped reason -> ("skipped: " ^ reason, false)
          | Report.Fail msg -> ("FAIL: " ^ msg, true)
        in
        Format.fprintf std "%-46s %12s  %-12s %s@." g.Report.name
          (match g.Report.measured with
          | Some m -> Printf.sprintf "%.6g" m
          | None -> "-")
          (Printf.sprintf "%s %g" (Report.op_label g.Report.op) g.Report.bound)
          verdict;
        failed)
      gates
  in
  Format.fprintf std "wrote %s@." file;
  if failed <> [] then begin
    Format.eprintf "%s: %d gate(s) failed: %s@." file (List.length failed)
      (String.concat ", " (List.map (fun g -> g.Report.name) failed));
    exit 1
  end

let timed f =
  let t0 = Telemetry.Perf.wall_clock_s () in
  let r = f () in
  (r, Telemetry.Perf.wall_clock_s () -. t0)

let pct over base = if base > 0. then 100. *. (over -. base) /. base else 0.
let ratio num den = if den > 0. then num /. den else 0.
let best = List.fold_left Float.min infinity

let words_per_event probe =
  let words =
    Telemetry.Registry.gauge_value
      (Telemetry.Registry.gauge probe.Telemetry.Probe.registry
         Telemetry.Probe.m_minor_words)
  in
  words /. float_of_int (Stdlib.max 1 (Telemetry.Probe.events_total probe))

let run_phase_s probe =
  Telemetry.Perf.duration_s probe.Telemetry.Probe.phases "run"

(* ------------------------------------------------------------------ *)
(* Mean-field regime shared by the PDES, flows and hybrid sections     *)

(* Bottleneck capacity, gateway buffer and RED thresholds all scale
   linearly with N, so every size solves the same per-flow fluid fixed
   point and the measured steady state can be validated against
   [Fluidmodel.Reno_fluid.equilibrium] at any N. The per-flow constants:

   - 16 pkt/s of bottleneck share per flow (0.192 Mbps at 1500 B);
   - 200 ms round-trip propagation;
   - adv_window 12: the largest window that keeps the sequence tables at
     16 slots (sender + receiver rows at 496 bytes, inside the budget)
     while clearing the AIMD sawtooth's peak, so flows stay
     congestion-limited;
   - buffer 10N, RED band [N, 7N] with max_p 0.05.

   The fixed point is w* ~ 8.0 packets, p* ~ 0.031, queue ~ 4.8N — a
   drop rate low enough that discrete Reno recovers losses with fast
   retransmit instead of collapsing into RTO backoff (at p ~ 0.1 and
   w ~ 4, whole windows die and every flow sits in exponential
   timeout backoff; the fluid ODE knows nothing about timeouts). *)
let meanfield_cfg n duration_s =
  let f = float_of_int n in
  {
    (Burstcore.Config.with_clients Burstcore.Config.default n) with
    Burstcore.Config.bottleneck_bandwidth_mbps = 0.192 *. f;
    client_delay_s = 0.05;
    bottleneck_delay_s = 0.05;
    adv_window = 12;
    buffer_packets = 10 * n;
    red_min_th = f;
    red_max_th = 7.0 *. f;
    red_max_p = 0.05;
    duration_s;
    warmup_s = duration_s /. 2.;
  }

let fluid_params ~flows (cfg : Burstcore.Config.t) =
  {
    Fluidmodel.Reno_fluid.flows;
    capacity_pps = Burstcore.Hybrid.capacity_pps cfg;
    base_rtt_s = Burstcore.Config.rtt_prop_s cfg;
    buffer_packets = float_of_int cfg.buffer_packets;
    red_min_th = cfg.red_min_th;
    red_max_th = cfg.red_max_th;
    red_max_p = cfg.red_max_p;
    avg_gain = 10.;
  }

type drive = {
  events : int;
  wall_s : float;
  gc : Telemetry.Perf.gc_counters;
  throughput_pps : float;  (** all flows, over the measurement window *)
  loss_rate : float;
  queue_mean : float;  (** gateway queue plus the fluid backlog, if any *)
  hybrid : Burstcore.Metrics.hybrid_summary option;
  flow_table_growths : int;
  queue_growths : int;
  leak_free : bool;
  bytes_per_flow : int;
  footprint_bytes : int;
  queue_capacity : int;
  queue_hwm : int;
  wheel_parked : int;
  delivered : int;
}

(* Drive [k] packet-level greedy Reno/RED flows over [cfg], attaching the
   fluid background when [cfg.background >= 1], and measure over the
   last 40 % of the horizon. Unlike the fluid-comparison section this
   never records cwnd traces (a boxed per-sample list per flow is exactly
   the O(N) cost the flows section exists to avoid). *)
let drive (cfg : Burstcore.Config.t) k =
  let module Time = Sim_engine.Time in
  let module Scheduler = Sim_engine.Scheduler in
  let module Dumbbell = Burstcore.Dumbbell in
  let duration_s = cfg.duration_s in
  let measure_from = 0.6 *. duration_s in
  let net = Dumbbell.create cfg Burstcore.Scenario.reno_red in
  let sched = Dumbbell.scheduler net in
  let horizon = Time.of_sec duration_s in
  let bottleneck = Dumbbell.bottleneck net in
  let hybrid =
    if cfg.background >= 1 then
      Some (Burstcore.Hybrid.attach ~sched ~bottleneck cfg)
    else None
  in
  let queue_series =
    Netsim.Monitor.queue_sampler sched bottleneck ~every:(Time.of_ms 10.)
      ~until:horizon
  in
  (* Deterministic start stagger across the first 200 ms: k synchronized
     slow starts would otherwise dump k packets into the gateway within
     one RTT of t = 0. *)
  for i = 0 to k - 1 do
    ignore
      (Traffic.Bulk.start sched ~size:Traffic.Bulk.infinite_backlog_size
         ~start:(Time.of_sec (0.2 *. float_of_int i /. float_of_int k))
         ~sink:(Dumbbell.sink net i))
  done;
  let delivered_at_mark = ref 0 in
  let arrivals_at_mark = ref 0 in
  let drops_at_mark = ref 0 in
  ignore
    (Scheduler.at sched (Time.of_sec measure_from) (fun () ->
         delivered_at_mark := Dumbbell.delivered_total net;
         arrivals_at_mark := Netsim.Link.arrivals bottleneck;
         drops_at_mark := Netsim.Link.drops bottleneck));
  let g0 = Telemetry.Perf.gc_read () in
  let (), wall_s = timed (fun () -> Scheduler.run ~until:horizon sched) in
  let gc = Telemetry.Perf.gc_since g0 in
  let delivered = Dumbbell.delivered_total net in
  let arrivals = Netsim.Link.arrivals bottleneck - !arrivals_at_mark in
  let drops = Netsim.Link.drops bottleneck - !drops_at_mark in
  let steady = Netstats.Series.between queue_series measure_from duration_s in
  let summary = Option.map Burstcore.Hybrid.summary hybrid in
  let result =
    {
      events = Scheduler.events_processed sched;
      wall_s;
      gc;
      throughput_pps =
        float_of_int (delivered - !delivered_at_mark)
        /. (duration_s -. measure_from);
      loss_rate = ratio (float_of_int drops) (float_of_int arrivals);
      queue_mean =
        (List.fold_left (fun acc (_, v) -> acc +. v) 0. steady
         /. float_of_int (Stdlib.max 1 (List.length steady)))
        +. (match summary with
           | Some s -> s.Burstcore.Metrics.bg_queue_mean
           | None -> 0.);
      hybrid = summary;
      flow_table_growths = Dumbbell.flow_table_growths net;
      queue_growths = Scheduler.queue_growths sched;
      leak_free = false;
      bytes_per_flow = Dumbbell.flow_table_bytes_per_flow net;
      footprint_bytes = Dumbbell.flow_table_footprint_bytes net;
      queue_capacity = Scheduler.queue_capacity sched;
      queue_hwm = Scheduler.queue_high_water_mark sched;
      wheel_parked = Scheduler.queue_wheel_parked sched;
      delivered;
    }
  in
  (* The teardown [Run.run] performs: every packet handle and every flow
     row must drain back to its slab. *)
  let leak_free =
    match Dumbbell.finish net ignore with
    | () -> true
    | exception Failure _ -> false
  in
  { result with leak_free }

(* ------------------------------------------------------------------ *)
(* Telemetry overhead: events/sec with and without a probe             *)

(* Three configurations of the same Reno N=50 run, same seed (so the
   event count is identical and only wall time differs), interleaved
   once per rep so slow drift (CPU frequency, cache state) lands on all
   three alike:

   - baseline: no probe at all;
   - probed: a probe with no subscribers (phase timers + run notes);
   - recorded: the probe plus a full-lifecycle ring-buffer flight
     recorder (Drop_oldest, 4Ki records) — the "always-on" shape: a
     bounded last-N window sized to stay cache-resident, unlike the
     Grow configuration --record-out uses for complete captures.

   Gates:
   - probe overhead vs baseline, per-rep total wall;
   - recorder overhead vs probed, per-rep probe-timed {e run phase} (the
     recorder's per-run setup constant amortizes to nothing at
     paper-scale durations but would swamp a --fast run's
     few-millisecond wall — the same run-phase discipline the alloc
     bench applies to GC counters). Measured steady state on this
     workload is ~2-3%; the budget adds headroom for shared-vCPU jitter,
     which swings individual pairs by +-5% or more. It is a regression
     tripwire for the failure modes that matter — an accidental
     allocation, a per-record scan, a boxed float on the hot path — all
     of which cost far more than the headroom. The deterministic
     words/event delta is the precise gate;
   - recorder minor words/event within 0.05 of the probed run (the hot
     path is integer stores into a preallocated ring, so the delta must
     be ~0);
   - the post-run NDJSON encode --trace-out pays, in ns per event: per
     rep, one Grow-mode parity recording of the same run replayed
     through [Probe.replay] into an [ndjson_writer] on /dev/null. On a
     2-vCPU x86-64 host the printf-based encoder read 4100-5200 ns here,
     the encoder that built a [Json.t] tree per line 590-1140 ns, and
     the renderer that writes each line straight from the event 190-270
     ns (q1 180-265 over five runs). The gate is judged on q1, so its
     450 ns bound keeps 1.7x headroom over the renderer and trips on a
     return to a tree, or a buffer, per line. *)
let run_telemetry_bench () =
  section "Telemetry overhead (events/sec)";
  let cfg =
    {
      (Burstcore.Config.with_clients (config ()) 50) with
      (* A long-enough simulated horizon that a single run's ~25 ms run
         phase rises above single-vCPU scheduler jitter — at 10 s the
         per-rep deltas are pure noise. Kept the same under --fast: the
         whole section still costs well under a second. *)
      Burstcore.Config.duration_s = 30.;
      warmup_s = 2.;
    }
  in
  let scenario = Burstcore.Scenario.reno in
  let reps = if !fast then 9 else 5 in
  let probed_run recording =
    (* Settle major-GC debt from the previous run so collection work
       does not land inside the next timed one. *)
    Gc.full_major ();
    timed (fun () ->
        let probe = Telemetry.Probe.create () in
        Option.iter (Telemetry.Probe.set_recording probe) recording;
        ignore (Burstcore.Run.run ~probe cfg scenario);
        probe)
  in
  let rows =
    List.init reps (fun _ ->
        Gc.full_major ();
        let (), baseline =
          timed (fun () -> ignore (Burstcore.Run.run cfg scenario))
        in
        let probed, probed_wall = probed_run None in
        let recorded, recorded_wall =
          probed_run
            (Some
               {
                 Telemetry.Recorder.capacity = 4096;
                 overflow = Telemetry.Recorder.Drop_oldest;
                 lifecycle = true;
               })
        in
        (baseline, probed, probed_wall, recorded, recorded_wall))
  in
  let baseline_walls = List.map (fun (b, _, _, _, _) -> b) rows in
  let probed_walls = List.map (fun (_, _, w, _, _) -> w) rows in
  let recorded_walls = List.map (fun (_, _, _, _, w) -> w) rows in
  let probed_runs = List.map (fun (_, p, _, _, _) -> run_phase_s p) rows in
  let recorded_runs = List.map (fun (_, _, _, r, _) -> run_phase_s r) rows in
  let parity =
    let probe = Telemetry.Probe.create () in
    Telemetry.Probe.set_recording probe
      { Telemetry.Recorder.default_config with lifecycle = false };
    ignore (Burstcore.Run.run ~probe cfg scenario);
    Telemetry.Probe.segments probe
  in
  let trace_events =
    List.fold_left (fun acc r -> acc + Telemetry.Recorder.total_recorded r) 0 parity
  in
  let null = open_out_bin "/dev/null" in
  let encode_ns () =
    let probe = Telemetry.Probe.create () in
    let bus = probe.Telemetry.Probe.bus in
    ignore
      (Telemetry.Event_bus.subscribe bus (Telemetry.Event_bus.ndjson_writer null));
    Gc.full_major ();
    let (), wall =
      timed (fun () ->
          List.iter (Telemetry.Probe.replay probe) parity;
          flush null)
    in
    wall *. 1e9 /. float_of_int (Telemetry.Event_bus.published bus)
  in
  let encode_ns = List.init reps (fun _ -> encode_ns ()) in
  close_out null;
  let _, probed, _, recorded, _ = List.nth rows (reps - 1) in
  let events = Telemetry.Probe.events_total probed in
  let segments = Telemetry.Probe.segments recorded in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 segments in
  let records = sum Telemetry.Recorder.total_recorded in
  let dropped = sum Telemetry.Recorder.total_dropped in
  let eps wall = ratio (float_of_int events) wall in
  let probed_words = words_per_event probed in
  let recorded_words = words_per_event recorded in
  Format.fprintf std "events per run        %12d@." events;
  List.iter
    (fun (what, walls) ->
      Format.fprintf std "%-21s %12.0f ev/s  (%.4f s)@." what (eps (best walls))
        (best walls))
    [
      ("baseline (no probe)", baseline_walls);
      ("probed", probed_walls);
      ("recorded (lifecycle)", recorded_walls);
    ];
  Format.fprintf std "run phase             %12.4f s probed, %.4f s recorded@."
    (best probed_runs) (best recorded_runs);
  Format.fprintf std "recorder records      %12d  (%d dropped by ring)@." records
    dropped;
  Format.fprintf std "ndjson encode         %12d events, %.0f ns/event (best)@."
    trace_events (best encode_ns);
  emit ~file:"BENCH_telemetry.json"
    ~fields:
      [
        ("scenario", Json.String (Burstcore.Scenario.label scenario));
        ("clients", Json.Int cfg.Burstcore.Config.clients);
        ("duration_s", Json.Float cfg.Burstcore.Config.duration_s);
        ("reps", Json.Int reps);
        ("events", Json.Int events);
        ("baseline_wall_s", Json.Float (best baseline_walls));
        ("probed_wall_s", Json.Float (best probed_walls));
        ("recorded_wall_s", Json.Float (best recorded_walls));
        ("probed_run_s", Json.Float (best probed_runs));
        ("recorded_run_s", Json.Float (best recorded_runs));
        ("baseline_events_per_sec", Json.Float (eps (best baseline_walls)));
        ("probed_events_per_sec", Json.Float (eps (best probed_walls)));
        ("recorded_events_per_sec", Json.Float (eps (best recorded_walls)));
        ("probed_minor_words_per_event", Json.Float probed_words);
        ("recorded_minor_words_per_event", Json.Float recorded_words);
        ("recorder_dropped", Json.Int dropped);
        ("trace_events", Json.Int trace_events);
      ]
    ~gates:
      [
        timed_gate "probe_overhead_pct" Report.Le 15.0
          (List.map2 pct probed_walls baseline_walls);
        timed_gate "recorder_overhead_pct" Report.Le 8.0
          (List.map2 pct recorded_runs probed_runs);
        gate "recorder_minor_words_per_event_delta" Report.Le 0.05
          (recorded_words -. probed_words);
        gate "recorder_records" Report.Ge 1. (float_of_int records);
        timed_gate "trace_ndjson_ns_per_event" Report.Le 450. encode_ns;
      ]

(* ------------------------------------------------------------------ *)
(* Allocation budget: events/sec and GC words per event                *)

(* One Reno N=50 run, instrumented with [Gc.quick_stat] deltas. The
   committed baseline below was measured on this machine before the
   allocation-free inner loop landed (float Time.t, Int64 RNG, no event
   free-list); the JSON report carries both so regressions and the
   before/after ratios are visible in one file. *)

(* Pre-optimisation numbers (seed + PR 2 state), recorded by running
   this very section before the inner-loop rewrite: Reno N=50, 30 s,
   best of 3. The baseline bracketed the whole run with [Gc.quick_stat]
   (run-phase GC counters did not exist yet); at 30 s setup amortises to
   under 0.3 words/event, so it is comparable to the run-phase figures
   measured below. *)
let alloc_baseline_minor_words_per_event = 30.48
let alloc_baseline_events_per_sec = 1_311_337.

(* Per-scenario allocation budgets. Each row gates its own committed
   ceiling, about 10% above the larger of its --fast and full-mode
   readings (Reno 4.64 / 4.64, Reno/RED 5.27 / 5.80, Vegas 4.98 / 4.66
   minor words/event). Words/event repeat exactly for a seed, so the
   margin only absorbs code changes, not noise. The primary
   Reno/drop-tail row also carries the committed events/sec floor:
   1.15x over the 1.79M ev/s recorded before the pool landed.
   Wall-clock gates are machine-sensitive, so only that row has one, and
   it is skipped under [--fast], where the wall time is a few
   milliseconds. *)
type alloc_budget = {
  ab_scenario : Burstcore.Scenario.t;
  words_threshold : float;
  min_events_per_sec : float option;
}

let alloc_budgets =
  [
    {
      ab_scenario = Burstcore.Scenario.reno;
      words_threshold = 5.1;
      min_events_per_sec = Some 2_060_000.;
    };
    {
      ab_scenario = Burstcore.Scenario.reno_red;
      words_threshold = 6.4;
      min_events_per_sec = None;
    };
    {
      ab_scenario = Burstcore.Scenario.vegas;
      words_threshold = 5.5;
      min_events_per_sec = None;
    };
  ]

let run_alloc_bench () =
  section "Allocation budget (events/sec, GC words/event)";
  let cfg =
    {
      (Burstcore.Config.with_clients (config ()) 50) with
      (* Full mode simulates long enough that a rep's wall time is a
         few hundred ms — at 30 s the whole run fits in ~50 ms and the
         events/sec figure swings ±20% with scheduler noise. *)
      Burstcore.Config.duration_s = (if !fast then 10. else 180.);
      warmup_s = 2.;
    }
  in
  let reps = if !fast then 3 else 5 in
  (* Same seed every rep: the event count and allocation profile are
     deterministic, only wall time varies. The GC figures come from the
     fastest rep's run-phase probe counters (what [note_run] records), so
     they cover exactly the inner loop the gate is about — setup and
     metric collection are excluded, which also keeps words/event
     independent of the run duration. [Run.run] raises if a run leaks
     pool slots. *)
  let measure scenario =
    let runs =
      List.init reps (fun _ ->
          timed (fun () ->
              let probe = Telemetry.Probe.create () in
              ignore (Burstcore.Run.run ~probe cfg scenario);
              probe))
    in
    let probe, wall =
      List.fold_left
        (fun (p, w) (p', w') -> if w' < w then (p', w') else (p, w))
        (List.hd runs) runs
    in
    let r = probe.Telemetry.Probe.registry in
    let events = Telemetry.Probe.events_total probe in
    let fe = float_of_int (Stdlib.max 1 events) in
    let gauge name =
      Telemetry.Registry.gauge_value (Telemetry.Registry.gauge r name) /. fe
    in
    ( events,
      wall,
      List.map (fun (_, w) -> ratio fe w) runs,
      gauge Telemetry.Probe.m_minor_words,
      gauge Telemetry.Probe.m_promoted_words,
      Telemetry.Registry.counter_value
        (Telemetry.Registry.counter r Telemetry.Probe.m_major_collections) )
  in
  let measured =
    List.map
      (fun budget ->
        let label = Burstcore.Scenario.label budget.ab_scenario in
        let events, wall, eps_reps, wpe, ppe, majors =
          measure budget.ab_scenario
        in
        let eps = ratio (float_of_int events) wall in
        Format.fprintf std "@.%s@." label;
        Format.fprintf std "  events per run        %12d@." events;
        Format.fprintf std "  wall (best of %d)     %13.4f s@." reps wall;
        Format.fprintf std "  events/sec            %12.0f@." eps;
        Format.fprintf std "  minor words/event     %12.2f@." wpe;
        Format.fprintf std "  promoted words/event  %12.4f@." ppe;
        Format.fprintf std "  major collections     %12d@." majors;
        let floor_gates =
          match budget.min_events_per_sec with
          | None -> []
          | Some floor ->
              Format.fprintf std
                "  baseline words/event  %12.2f  (%.2fx reduction)@."
                alloc_baseline_minor_words_per_event
                (ratio alloc_baseline_minor_words_per_event wpe);
              Format.fprintf std
                "  baseline events/sec   %12.0f  (%.2fx speedup)@."
                alloc_baseline_events_per_sec
                (ratio eps alloc_baseline_events_per_sec);
              let name = label ^ ".events_per_sec" in
              [
                (if !fast then
                   skipped name Report.Ge floor "--fast: runs too short to time"
                 else timed_gate name Report.Ge floor eps_reps);
              ]
        in
        ( Json.Obj
            [
              ("scenario", Json.String label);
              ("clients", Json.Int cfg.Burstcore.Config.clients);
              ("events", Json.Int events);
              ("wall_s", Json.Float wall);
              ("events_per_sec", Json.Float eps);
              ("minor_words_per_event", Json.Float wpe);
              ("promoted_words_per_event", Json.Float ppe);
              ("major_collections", Json.Int majors);
            ],
          gate (label ^ ".minor_words_per_event") Report.Le
            budget.words_threshold wpe
          :: floor_gates ))
      alloc_budgets
  in
  emit ~file:"BENCH_alloc.json"
    ~fields:
      [
        ("clients", Json.Int cfg.Burstcore.Config.clients);
        ("duration_s", Json.Float cfg.Burstcore.Config.duration_s);
        ("reps", Json.Int reps);
        ( "baseline_minor_words_per_event",
          Json.Float alloc_baseline_minor_words_per_event );
        ("baseline_events_per_sec", Json.Float alloc_baseline_events_per_sec);
        ("rows", Json.List (List.map fst measured));
      ]
    ~gates:(List.concat_map snd measured)

(* ------------------------------------------------------------------ *)
(* Parallel sweep: sequential vs domain-fanned wall time               *)

(* One replicated Reno sweep, run twice: sequentially and fanned over
   [Domain.recommended_domain_count ()] domains. The two result lists
   must compare equal — a team-fanned sweep is bit-identical — so
   the only thing allowed to change is wall time. Speedup depends on the
   machine; the recorded [domains] field says what was available. *)
let run_parallel_bench () =
  section "Parallel sweep (sequential vs domains)";
  let cfg =
    {
      (config ()) with
      Burstcore.Config.duration_s = (if !fast then 10. else 30.);
      warmup_s = 2.;
    }
  in
  let ns = if !fast then [ 10; 20 ] else [ 10; 20; 30 ] in
  let replicates = 4 in
  let scenario = Burstcore.Scenario.reno in
  let seq, seq_wall =
    timed (fun () -> Burstcore.Sweep.replicated cfg scenario ~replicates ns)
  in
  (* Cap the team: beyond 8 domains this sweep has fewer points than
     ranks, so extra domains only add spawn cost and scheduler noise. *)
  let domains = min 8 (max 1 (Domain.recommended_domain_count ())) in
  let par, par_wall =
    timed (fun () ->
        Parallel.Pool.Team.with_team ~domains (fun pool ->
            Burstcore.Sweep.replicated ~pool cfg scenario ~replicates ns))
  in
  (* With one domain the "parallel" path degrades to an inline map, so
     the ratio measures nothing but noise — record null rather than a
     meaningless (often < 1) figure. *)
  let speedup =
    if domains < 2 || par_wall <= 0. then Json.Null
    else Json.Float (seq_wall /. par_wall)
  in
  Format.fprintf std
    "points                %12d  (%d client counts x %d replicates)@."
    (List.length ns * replicates)
    (List.length ns) replicates;
  Format.fprintf std "domains               %12d@." domains;
  Format.fprintf std "sequential            %12.4f s@." seq_wall;
  Format.fprintf std "parallel              %12.4f s@." par_wall;
  (* --- single-run sharded PDES: one N = 10^4 Reno/RED run over K
     domains, in the mean-field regime (per-flow capacity constant) so
     the run is steady rather than collapsed at this client count. Two
     claims:

     - determinism: a 1-shard and a 4-shard run of a smaller
       configuration produce identical Metrics.t — gated on any
       machine, because it does not depend on physical parallelism;
     - scaling: wall time for 1/2/4 shards at N = 10^4, gated as
       wall(1)/wall(4) >= 3 when the machine has at least 4 domains and
       skipped otherwise (fewer domains measure oversubscription, not
       scaling). *)
  section "Sharded PDES (single run over K domains)";
  let module C = Burstcore.Config in
  let pdes_scenario = Burstcore.Scenario.reno_red in
  let det_cfg = meanfield_cfg 64 (if !fast then 2.0 else 4.0) in
  let det_run shards =
    Burstcore.Run.run { det_cfg with C.shards } pdes_scenario
  in
  let sharded_deterministic = det_run 1 = det_run 4 in
  let pdes_n = 10_000 in
  let pdes_duration = if !fast then 1.0 else 2.0 in
  let scale_cfg = meanfield_cfg pdes_n pdes_duration in
  let pdes_rows =
    List.map
      (fun shards ->
        let _, wall =
          timed (fun () ->
              ignore
                (Burstcore.Run.run { scale_cfg with C.shards } pdes_scenario))
        in
        Format.fprintf std "shards=%d              %12.4f s@." shards wall;
        (shards, wall))
      [ 1; 2; 4 ]
  in
  let wall_of k = List.assoc k pdes_rows in
  let speedup_gate =
    if domains >= 4 then
      timed_gate "single_run_speedup" Report.Ge 3.0
        [ ratio (wall_of 1) (wall_of 4) ]
    else
      skipped "single_run_speedup" Report.Ge 3.0
        (Printf.sprintf "%d domain(s) available, scaling needs 4" domains)
  in
  emit ~file:"BENCH_parallel.json"
    ~fields:
      [
        ("scenario", Json.String (Burstcore.Scenario.label scenario));
        ("clients", Json.List (List.map (fun n -> Json.Int n) ns));
        ("replicates", Json.Int replicates);
        ("duration_s", Json.Float cfg.Burstcore.Config.duration_s);
        ("domains", Json.Int domains);
        ("sequential_wall_s", Json.Float seq_wall);
        ("parallel_wall_s", Json.Float par_wall);
        ("speedup", speedup);
        ( "single_run",
          Json.Obj
            [
              ( "scenario",
                Json.String (Burstcore.Scenario.label pdes_scenario) );
              ("clients", Json.Int pdes_n);
              ("duration_s", Json.Float pdes_duration);
              ("window_s", Json.Float (Burstcore.Pdes.window_s scale_cfg));
              ("available_domains", Json.Int domains);
              ( "rows",
                Json.List
                  (List.map
                     (fun (shards, wall) ->
                       Json.Obj
                         [
                           ("shards", Json.Int shards);
                           ("wall_s", Json.Float wall);
                         ])
                     pdes_rows) );
            ] );
      ]
    ~gates:
      [
        flag "deterministic" (par = seq);
        flag "sharded_deterministic" sharded_deterministic;
        speedup_gate;
      ]

(* ------------------------------------------------------------------ *)
(* Flow scaling: one run pushed from 10^3 to 10^5 greedy flows         *)

(* The mean-field regime above, N from 10^3 to 10^5. The fluid ratios
   are gated on the two smaller sizes, which run long enough (~20
   equilibrium RTTs) for the AIMD ensemble to converge; the N = 10^5
   point is the memory/throughput row — a shorter run whose gates are
   bytes/flow, zero slab growth, leak-freedom and events/sec, with the
   fluid ratios reported but not gated. The model is checked through
   aggregate queue and throughput only. *)

let flows_bytes_per_flow_budget = 512.

(* Committed floor for the N = 10^5 point, full mode only (wall time is
   machine-dependent; --fast skips it). *)
let flows_min_events_per_sec = 300_000.
let flows_minor_words_per_event_budget = 8.0
let flows_throughput_ratio_band = (0.80, 1.05)

(* The packet sim settles at ~0.5x the ODE's queue (the ODE has no
   timeouts, no sub-RTT burstiness, and a first-order RED average); the
   observable that matters is that the ratio is N-independent, so the
   band is wide but the scaling is tight. *)
let flows_queue_ratio_band = (0.35, 1.5)

let run_flows_bench () =
  section "Flow scaling (greedy Reno/RED flows, N = 10^3 .. 10^5)";
  (* (size, sim seconds, fluid ratios gated?, smoke?) — the converged
     points need ~20 equilibrium RTTs (r* ~ 0.5 s); the 10^5 point is a
     short memory/throughput run. The N = 10^6 row (full mode only) is a
     scale smoke probe: its horizon is far too short for steady state,
     so it commits only to the per-flow byte budget and leak-freedom —
     pre-sized slabs are allowed to grow and no words/event or fluid
     gate applies. *)
  let points =
    if !fast then
      [
        (1_000, 8.0, true, false);
        (10_000, 8.0, true, false);
        (100_000, 2.0, false, false);
      ]
    else
      [
        (1_000, 10.0, true, false);
        (10_000, 10.0, true, false);
        (100_000, 2.5, false, false);
        (1_000_000, 0.5, false, true);
      ]
  in
  let measured =
    List.map
      (fun (n, duration_s, fluid_gated, smoke) ->
        let cfg = meanfield_cfg n duration_s in
        let d = drive cfg n in
        let fe = float_of_int (Stdlib.max 1 d.events) in
        let eps = ratio fe d.wall_s in
        let wpe = d.gc.Telemetry.Perf.minor_words /. fe in
        let eq =
          Fluidmodel.Reno_fluid.equilibrium (fluid_params ~flows:n cfg)
        in
        let fluid_queue = eq.Fluidmodel.Reno_fluid.eq_queue in
        let fluid_throughput = eq.Fluidmodel.Reno_fluid.eq_throughput_pps in
        let queue_ratio = ratio d.queue_mean fluid_queue in
        let throughput_ratio = ratio d.throughput_pps fluid_throughput in
        Format.fprintf std "@.N = %d flows@." n;
        Format.fprintf std "  events                %12d@." d.events;
        Format.fprintf std "  wall                  %13.4f s@." d.wall_s;
        Format.fprintf std "  events/sec            %12.0f@." eps;
        Format.fprintf std "  minor words/event     %12.3f@." wpe;
        Format.fprintf std "  bytes/flow            %12d@." d.bytes_per_flow;
        Format.fprintf std "  flow-table footprint  %12d bytes@."
          d.footprint_bytes;
        Format.fprintf std "  growths (flows/queue) %9d / %d@."
          d.flow_table_growths d.queue_growths;
        Format.fprintf std "  queue: sim %.0f  fluid %.0f  (ratio %.3f)@."
          d.queue_mean fluid_queue queue_ratio;
        Format.fprintf std
          "  throughput: sim %.0f  fluid %.0f pps  (ratio %.3f)@."
          d.throughput_pps fluid_throughput throughput_ratio;
        let name what = Printf.sprintf "N=%d.%s" n what in
        let gates =
          [
            gate (name "bytes_per_flow") Report.Le flows_bytes_per_flow_budget
              (float_of_int d.bytes_per_flow);
            flag (name "leak_free") d.leak_free;
          ]
          @ (if smoke then []
             else
               [
                 zero (name "flow_table_growths") d.flow_table_growths;
                 zero (name "queue_growths") d.queue_growths;
                 gate (name "minor_words_per_event") Report.Le
                   flows_minor_words_per_event_budget wpe;
               ])
          @ (if fluid_gated then
               band (name "throughput_ratio") flows_throughput_ratio_band
                 throughput_ratio
               @ band (name "queue_ratio") flows_queue_ratio_band queue_ratio
             else [])
          @
          if n <> 100_000 then []
          else if !fast then
            [
              skipped (name "events_per_sec") Report.Ge
                flows_min_events_per_sec "--fast: run too short to time";
            ]
          else
            [
              timed_gate (name "events_per_sec") Report.Ge
                flows_min_events_per_sec [ eps ];
            ]
        in
        ( Json.Obj
            [
              ("flows", Json.Int n);
              ("duration_s", Json.Float duration_s);
              ("smoke", Json.Bool smoke);
              ("events", Json.Int d.events);
              ("wall_s", Json.Float d.wall_s);
              ("events_per_sec", Json.Float eps);
              ("minor_words_per_event", Json.Float wpe);
              ( "promoted_words_per_event",
                Json.Float (d.gc.Telemetry.Perf.promoted_words /. fe) );
              ( "major_collections",
                Json.Int d.gc.Telemetry.Perf.major_collections );
              ("bytes_per_flow", Json.Int d.bytes_per_flow);
              ("flow_footprint_bytes", Json.Int d.footprint_bytes);
              ("flow_table_growths", Json.Int d.flow_table_growths);
              ("queue_growths", Json.Int d.queue_growths);
              ("queue_capacity", Json.Int d.queue_capacity);
              ("queue_hwm", Json.Int d.queue_hwm);
              ("wheel_parked", Json.Int d.wheel_parked);
              ("delivered", Json.Int d.delivered);
              ("measured_queue", Json.Float d.queue_mean);
              ("fluid_queue", Json.Float fluid_queue);
              ("queue_ratio", Json.Float queue_ratio);
              ("measured_throughput_pps", Json.Float d.throughput_pps);
              ("fluid_throughput_pps", Json.Float fluid_throughput);
              ("throughput_ratio", Json.Float throughput_ratio);
            ],
          gates ))
      points
  in
  emit ~file:"BENCH_flows.json"
    ~fields:
      [
        ("per_flow_capacity_pps", Json.Float 16.);
        ("base_rtt_s", Json.Float 0.2);
        ("rows", Json.List (List.map fst measured));
      ]
    ~gates:(List.concat_map snd measured)

(* ------------------------------------------------------------------ *)
(* RED w_q stability sweep, shared by the burst and hybrid sections    *)

(* Run [cfg_of w_q] one decade below and two decades above the
   linearized (Reynier/Hollot-style) critical averaging gain of
   [params] with the oscillation detector on. The detector must stay
   quiet on the stable row and fire on the unstable one. Returns the
   sweep's JSON section and one gate per row. *)
let red_sweep ~prefix params cfg_of =
  let stability = Fluidmodel.Reno_fluid.red_stability params in
  let loop_gain = stability.Fluidmodel.Reno_fluid.loop_gain in
  let wq_critical =
    match stability.Fluidmodel.Reno_fluid.wq_critical with
    | Some w -> w
    | None ->
        failwith
          (Printf.sprintf "%s misconfigured: loop gain %.3f <= 1, no critical w_q"
             prefix loop_gain)
  in
  Format.fprintf std
    "@.RED stability (N=%d, R=%.3f s, C=%.1f pps): loop gain %.3f, w_q* = \
     %.2e@."
    params.Fluidmodel.Reno_fluid.flows params.Fluidmodel.Reno_fluid.base_rtt_s
    params.Fluidmodel.Reno_fluid.capacity_pps loop_gain wq_critical;
  let rows =
    List.map
      (fun (side, w_q) ->
        let probe = Telemetry.Probe.create () in
        Telemetry.Probe.set_burst probe (Some Telemetry.Burst.default_config);
        let m = Burstcore.Run.run ~probe (cfg_of w_q) Burstcore.Scenario.reno_red in
        let o =
          match m.Burstcore.Metrics.burst with
          | Some { Telemetry.Burst.s_osc = Some o; _ } -> o
          | _ -> failwith (prefix ^ " run produced no oscillation summary")
        in
        Format.fprintf std
          "  w_q %.2e (%8s): rel amplitude %.3f, %d crossings, %.3f Hz, mean \
           queue %.1f -> %s@."
          w_q side o.Telemetry.Burst.o_rel_amplitude
          o.Telemetry.Burst.o_crossings o.Telemetry.Burst.o_frequency_hz
          o.Telemetry.Burst.o_mean
          (if o.Telemetry.Burst.o_oscillating then "OSCILLATING" else "quiet");
        ( Json.Obj
            [
              ("w_q", Json.Float w_q);
              ("side", Json.String side);
              ("rel_amplitude", Json.Float o.Telemetry.Burst.o_rel_amplitude);
              ("frequency_hz", Json.Float o.Telemetry.Burst.o_frequency_hz);
              ("crossings", Json.Int o.Telemetry.Burst.o_crossings);
              ("mean_queue", Json.Float o.Telemetry.Burst.o_mean);
              ("oscillating", Json.Bool o.Telemetry.Burst.o_oscillating);
            ],
          gate
            (Printf.sprintf "%s.%s.oscillating" prefix side)
            Report.Eq
            (if side = "unstable" then 1. else 0.)
            (if o.Telemetry.Burst.o_oscillating then 1. else 0.) ))
      [ ("stable", wq_critical /. 10.); ("unstable", wq_critical *. 100.) ]
  in
  ( Json.Obj
      [
        ("flows", Json.Int params.Fluidmodel.Reno_fluid.flows);
        ("base_rtt_s", Json.Float params.Fluidmodel.Reno_fluid.base_rtt_s);
        ("capacity_pps", Json.Float params.Fluidmodel.Reno_fluid.capacity_pps);
        ("loop_gain", Json.Float loop_gain);
        ("wq_critical", Json.Float wq_critical);
        ("rows", Json.List (List.map fst rows));
      ],
    List.map snd rows )

(* ------------------------------------------------------------------ *)
(* Burstiness observability: streaming aggregator cost + correctness   *)

(* Three claims, one JSON artifact (BENCH_burst.json):

   - cost: enabling the always-on [Telemetry.Burst] aggregator on a
     probed Reno N=50 run adds at most 0.05 minor words per scheduler
     event. The hot path is a streaming dyadic fold over flat float
     arrays, so the only allocation the burst configuration adds during
     the run phase is the oscillation sampler's timer closures
     (~50/simulated-second). Probed and burst-enabled reps alternate and
     the last pair is kept, so one-time initialisation lands in neither;

   - correctness: the streaming c.o.v. at the paper's RTT timescale
     must match the offline [Binned] + [Summary] estimate on the same
     run within 1e-6. Both paths fold the identical complete-bin count
     sequence through the identical Welford update, so the gap is zero
     up to float noise;

   - discrimination: a RED w_q sweep bracketing the linearized
     stability threshold from [Fluidmodel.Reno_fluid.red_stability]. The
     sweep topology is tightened (150 ms RTT, RED band 15..25 at max_p
     0.6) so the critical gain w_q* lands where both sides are
     observable in a 90 s run: the stable row averages slowly enough to
     keep the queue pinned near its RED equilibrium, the unstable row
     tracks the instantaneous queue and limit-cycles. *)
let run_burst_bench () =
  section "Burstiness observability (Telemetry.Burst)";
  let scenario = Burstcore.Scenario.reno in
  let cfg =
    {
      (Burstcore.Config.with_clients (config ()) 50) with
      Burstcore.Config.duration_s = 30.;
      warmup_s = 2.;
    }
  in
  let reps = if !fast then 3 else 5 in
  let pairs =
    List.init reps (fun _ ->
        Gc.full_major ();
        let probed = Telemetry.Probe.create () in
        ignore (Burstcore.Run.run ~probe:probed cfg scenario);
        Gc.full_major ();
        let burst = Telemetry.Probe.create () in
        Telemetry.Probe.set_burst burst (Some Telemetry.Burst.default_config);
        let m = Burstcore.Run.run ~probe:burst cfg scenario in
        (probed, burst, m))
  in
  let probed, burst, m = List.nth pairs (reps - 1) in
  let probed_run = best (List.map (fun (p, _, _) -> run_phase_s p) pairs) in
  let burst_run = best (List.map (fun (_, b, _) -> run_phase_s b) pairs) in
  let events = Telemetry.Probe.events_total burst in
  let probed_words = words_per_event probed in
  let burst_words = words_per_event burst in
  let s =
    match m.Burstcore.Metrics.burst with
    | Some s -> s
    | None -> failwith "burst-enabled run produced no burst summary"
  in
  let cov_offline = m.Burstcore.Metrics.cov in
  let cov_streaming =
    match
      List.find_opt (fun r -> r.Telemetry.Burst.level = 0)
        s.Telemetry.Burst.scales
    with
    | Some { Telemetry.Burst.s_cov = Some c; _ } -> c
    | _ -> nan
  in
  let cov_abs_err = Float.abs (cov_streaming -. cov_offline) in
  let hurst =
    match s.Telemetry.Burst.s_hurst with Some h -> h | None -> nan
  in
  Format.fprintf std "events per run        %12d@." events;
  Format.fprintf std "run phase             %12.4f s probed, %.4f s burst@."
    probed_run burst_run;
  Format.fprintf std "burst words/event     %12.4f  (probed %.4f)@." burst_words
    probed_words;
  Format.fprintf std
    "cov at RTT scale      %12.7f streaming, %.7f offline (|err| %.2e)@."
    cov_streaming cov_offline cov_abs_err;
  Format.fprintf std "hurst (wavelet)       %12.3f@." hurst;
  let sweep_cfg =
    {
      (Burstcore.Config.with_clients (config ()) 50) with
      Burstcore.Config.client_delay_s = 0.0375;
      bottleneck_delay_s = 0.0375;
      red_min_th = 15.;
      red_max_th = 25.;
      red_max_p = 0.6;
      duration_s = 90.;
      warmup_s = 30.;
    }
  in
  let sweep_json, sweep_gates =
    red_sweep ~prefix:"red_sweep"
      (fluid_params ~flows:sweep_cfg.Burstcore.Config.clients sweep_cfg)
      (fun red_w_q -> { sweep_cfg with Burstcore.Config.red_w_q })
  in
  let finite x = if Float.is_finite x then Json.Float x else Json.Null in
  emit ~file:"BENCH_burst.json"
    ~fields:
      [
        ("scenario", Json.String (Burstcore.Scenario.label scenario));
        ("clients", Json.Int cfg.Burstcore.Config.clients);
        ("duration_s", Json.Float cfg.Burstcore.Config.duration_s);
        ("reps", Json.Int reps);
        ("events", Json.Int events);
        ("probed_run_s", Json.Float probed_run);
        ("burst_run_s", Json.Float burst_run);
        ("probed_minor_words_per_event", Json.Float probed_words);
        ("burst_minor_words_per_event", Json.Float burst_words);
        ("cov_offline", finite cov_offline);
        ("cov_streaming", finite cov_streaming);
        ("hurst_wavelet", finite hurst);
        ("red_sweep", sweep_json);
      ]
    ~gates:
      ([
         gate "burst_minor_words_per_event_delta" Report.Le 0.05
           (burst_words -. probed_words);
         gate "cov_abs_err" Report.Le 1e-6 cov_abs_err;
       ]
      @ sweep_gates)

(* ------------------------------------------------------------------ *)
(* Hybrid fluid/packet engine: validation, converged 10^6, stability   *)

(* Three claims, one JSON artifact (BENCH_hybrid.json):

   - validity: at N in {10^3, 10^4} total flows in the mean-field
     regime, replacing all but K = 50 flows with the fluid background
     population reproduces the pure packet-level run's per-flow
     foreground throughput, combined bottleneck backlog and gateway loss
     rate within committed bands — while processing a fraction of the
     events;
   - scale: the converged N = 10^6 run (K = 100 packet-level foreground
     + 999,900 fluid background, a steady-state >= 20-equilibrium-RTT
     horizon) is leak-free with zero slab growth and does at least
     [hybrid_work_ratio_min] times less work per simulated second than
     a pure packet-level run at equal N (measured in full mode only;
     skipped under --fast);
   - stability: the RED w_q sweep rerun at mean-field scale (N = 10^4,
     hybrid engine) is classified by the fluid Hopf threshold, closing
     the stability-boundary question at a population size the packet
     engine alone cannot hold at this horizon. *)

let hybrid_foreground = 50

(* The fluid Reno law has no timeouts and no sub-RTT burstiness, so the
   fluid-dominated side settles at a somewhat higher queue (and its
   foreground a somewhat higher throughput) than the pure packet run —
   the same inherent bias the flow-scaling bench gates at ~0.5x queue
   ratio against the standalone ODE. The observable that matters is
   that the ratios are N-independent; the bands are set around the
   measured bias with replicate headroom. *)
let hybrid_throughput_ratio_band = (0.80, 1.25)
let hybrid_queue_ratio_band = (0.5, 2.0)
let hybrid_loss_abs_tol = 0.025
let hybrid_work_ratio_min = 10.

let run_hybrid_bench () =
  section "Hybrid fluid/packet engine (fluid background population)";
  let module C = Burstcore.Config in
  (* --- validation: hybrid vs pure packet at N in {10^3, 10^4} ------ *)
  let k_fg = hybrid_foreground in
  let validation =
    List.map
      (fun n ->
        let duration_s = if !fast then 8.0 else 10.0 in
        let base = meanfield_cfg n duration_s in
        let p = drive base n in
        let h = drive { (C.with_clients base k_fg) with C.background = n - k_fg } k_fg in
        let p_pf = p.throughput_pps /. float_of_int n in
        let h_pf = h.throughput_pps /. float_of_int k_fg in
        let thr_ratio = ratio h_pf p_pf in
        let queue_ratio = ratio h.queue_mean p.queue_mean in
        let loss_err = Float.abs (h.loss_rate -. p.loss_rate) in
        let event_ratio = ratio (float_of_int p.events) (float_of_int h.events) in
        Format.fprintf std "@.N = %d (K = %d foreground, %d fluid)@." n k_fg
          (n - k_fg);
        Format.fprintf std
          "  per-flow throughput   %9.2f pps packet, %8.2f hybrid  (ratio \
           %.3f)@."
          p_pf h_pf thr_ratio;
        Format.fprintf std
          "  combined queue        %9.0f packet, %12.0f hybrid  (ratio \
           %.3f)@."
          p.queue_mean h.queue_mean queue_ratio;
        Format.fprintf std
          "  gateway loss rate     %9.4f packet, %12.4f hybrid  (|err| \
           %.4f)@."
          p.loss_rate h.loss_rate loss_err;
        Format.fprintf std
          "  events                %9d packet, %12d hybrid  (%.0fx less \
           work)@."
          p.events h.events event_ratio;
        Format.fprintf std "  wall                  %9.3f s packet, %10.3f s \
                            hybrid@."
          p.wall_s h.wall_s;
        let name what = Printf.sprintf "N=%d.%s" n what in
        ( Json.Obj
            ([
               ("flows", Json.Int n);
               ("foreground", Json.Int k_fg);
               ("background", Json.Int (n - k_fg));
               ("duration_s", Json.Float duration_s);
               ("packet_throughput_pps", Json.Float p_pf);
               ("hybrid_throughput_pps", Json.Float h_pf);
               ("throughput_ratio", Json.Float thr_ratio);
               ("packet_queue_mean", Json.Float p.queue_mean);
               ("hybrid_queue_mean", Json.Float h.queue_mean);
               ("queue_ratio", Json.Float queue_ratio);
               ("packet_loss_rate", Json.Float p.loss_rate);
               ("hybrid_loss_rate", Json.Float h.loss_rate);
               ("packet_events", Json.Int p.events);
               ("hybrid_events", Json.Int h.events);
               ("packet_wall_s", Json.Float p.wall_s);
               ("hybrid_wall_s", Json.Float h.wall_s);
             ]
            @
            match h.hybrid with
            | Some s -> [ ("hybrid", Burstcore.Export.hybrid_summary_to_json s) ]
            | None -> []),
          band (name "throughput_ratio") hybrid_throughput_ratio_band thr_ratio
          @ band (name "queue_ratio") hybrid_queue_ratio_band queue_ratio
          @ [
              gate (name "loss_abs_err") Report.Le hybrid_loss_abs_tol loss_err;
              gate (name "event_ratio") Report.Ge 1. event_ratio;
              flag (name "packet_leak_free") p.leak_free;
              flag (name "hybrid_leak_free") h.leak_free;
              zero (name "hybrid_flow_table_growths") h.flow_table_growths;
              zero (name "hybrid_queue_growths") h.queue_growths;
            ] ))
      [ 1_000; 10_000 ]
  in
  (* --- converged N = 10^6 ------------------------------------------ *)
  let conv_n = 1_000_000 and conv_k = 100 in
  let conv_duration = if !fast then 4.0 else 10.0 in
  let c =
    drive
      {
        (C.with_clients (meanfield_cfg conv_n conv_duration) conv_k) with
        C.background = conv_n - conv_k;
      }
      conv_k
  in
  let c_pf = c.throughput_pps /. float_of_int conv_k in
  let c_eps = float_of_int c.events /. Stdlib.max 1e-9 c.wall_s in
  let hybrid_work = float_of_int c.events /. conv_duration in
  Format.fprintf std
    "@.N = %d converged (K = %d foreground, %d fluid, %.1f s horizon)@."
    conv_n conv_k (conv_n - conv_k) conv_duration;
  Format.fprintf std "  events                %12d  (%.0f per simulated s)@."
    c.events hybrid_work;
  Format.fprintf std "  wall                  %13.4f s  (%.0f events/s)@."
    c.wall_s c_eps;
  Format.fprintf std "  foreground throughput %12.2f pps/flow, loss %.4f@."
    c_pf c.loss_rate;
  let bg f = match c.hybrid with Some s -> f s | None -> 0. in
  Format.fprintf std
    "  background            %12.2f window, %.0f virtual queue, slowdown \
     %.2f@."
    (bg (fun s -> s.Burstcore.Metrics.bg_window_mean))
    (bg (fun s -> s.Burstcore.Metrics.bg_queue_mean))
    (bg (fun s -> s.Burstcore.Metrics.slowdown_mean));
  let work_gate =
    if !fast then
      skipped "converged.work_ratio" Report.Ge hybrid_work_ratio_min
        "--fast: no pure-packet baseline at this horizon"
    else begin
      (* Pure packet at equal N: a short scale probe is enough to
         measure its work per simulated second. *)
      let probe_s = 0.3 in
      let p = drive (meanfield_cfg conv_n probe_s) conv_n in
      let packet_work = float_of_int p.events /. probe_s in
      Format.fprintf std
        "  pure packet at N=%d:  %12d events in %.1f simulated s (%.3f s \
         wall) -> %.0f events per simulated s@."
        conv_n p.events probe_s p.wall_s packet_work;
      gate "converged.work_ratio" Report.Ge hybrid_work_ratio_min
        (packet_work /. Stdlib.max 1. hybrid_work)
    end
  in
  (* --- RED w_q stability sweep at mean-field scale ------------------ *)
  (* The burst bench's sweep shape scaled x200 to N = 10^4 total flows:
     the loop gain L = slope (RC)^3 / (2N)^2 is invariant under
     (C, thresholds, buffer) proportional to N, so the Hopf threshold
     survives the scaling while the population becomes far too large to
     sweep packet-level at this horizon. *)
  let sweep_n = 10_000 in
  let sweep_cfg red_w_q =
    {
      (C.with_clients C.default hybrid_foreground) with
      C.bottleneck_bandwidth_mbps = 1000.;
      client_delay_s = 0.0375;
      bottleneck_delay_s = 0.0375;
      buffer_packets = 10_000;
      red_min_th = 3000.;
      red_max_th = 5000.;
      red_max_p = 0.6;
      red_w_q;
      duration_s = 90.;
      warmup_s = 30.;
      background = sweep_n - hybrid_foreground;
    }
  in
  let sweep_json, sweep_gates =
    red_sweep ~prefix:"stability_sweep"
      (fluid_params ~flows:sweep_n (sweep_cfg 0.002))
      sweep_cfg
  in
  emit ~file:"BENCH_hybrid.json"
    ~fields:
      [
        ("scenario", Json.String "reno-red");
        ("foreground", Json.Int k_fg);
        ("validation", Json.List (List.map fst validation));
        ( "converged",
          Json.Obj
            ([
               ("flows", Json.Int conv_n);
               ("foreground", Json.Int conv_k);
               ("background", Json.Int (conv_n - conv_k));
               ("duration_s", Json.Float conv_duration);
               ("events", Json.Int c.events);
               ("wall_s", Json.Float c.wall_s);
               ("events_per_sec", Json.Float c_eps);
               ("events_per_sim_s", Json.Float hybrid_work);
               ("foreground_throughput_pps", Json.Float c_pf);
               ("foreground_loss_rate", Json.Float c.loss_rate);
             ]
            @
            match c.hybrid with
            | Some s -> [ ("hybrid", Burstcore.Export.hybrid_summary_to_json s) ]
            | None -> []) );
        ("stability_sweep", sweep_json);
      ]
    ~gates:
      (List.concat_map snd validation
      @ [
          flag "converged.leak_free" c.leak_free;
          zero "converged.flow_table_growths" c.flow_table_growths;
          zero "converged.queue_growths" c.queue_growths;
          work_gate;
        ]
      @ sweep_gates)

let () =
  Arg.parse (Arg.align args) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if wants "table1" then run_table1 ();
  if wants "figures" then run_figures ();
  if wants "cwnd" then run_cwnd_figures ();
  if wants "queue" then run_queue_occupancy ();
  if wants "ablations" then run_ablations ();
  if wants "selfsim" then run_selfsim ();
  if wants "sync" then run_sync ();
  if wants "fluid" then run_fluid ();
  if wants "parking" then run_parking_lot ();
  if wants "twoway" then run_twoway ();
  if wants "telemetry" then run_telemetry_bench ();
  (* "pdes" is an alias for the parallel section: the sweep fan-out and
     the single-run sharded engine write one BENCH_parallel.json. *)
  if wants "parallel" || wants "pdes" then run_parallel_bench ();
  if wants "alloc" then run_alloc_bench ();
  if wants "flows" then run_flows_bench ();
  if wants "burst" then run_burst_bench ();
  if wants "hybrid" then run_hybrid_bench ();
  Format.pp_print_flush std ()
