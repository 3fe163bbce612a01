(* Tests for the experiment framework: config, scenarios, analytic
   baselines, fairness, dumbbell wiring, and end-to-end runs. *)

open Burstcore

let check_float = Alcotest.(check (float 1e-9))
let check_close tol = Alcotest.(check (float tol))

(* A small, fast configuration for integration tests. *)
let tiny ?(clients = 4) ?(duration = 30.) ?(warmup = 5.) () =
  {
    (Config.with_clients Config.default clients) with
    Config.duration_s = duration;
    warmup_s = warmup;
  }

(* ------------------------------------------------------------------ *)
(* Config *)

let config_derived_quantities () =
  let cfg = Config.default in
  check_float "rtt_prop" 1.0 (Config.rtt_prop_s cfg);
  check_close 0.1 "saturation ~41.7" 41.7 (Config.saturation_clients cfg);
  let cfg40 = Config.with_clients cfg 40 in
  check_close 1e-6 "offered load fraction" 0.96 (Config.offered_load_fraction cfg40)

let config_rejects_zero_clients () =
  Alcotest.check_raises "clients" (Invalid_argument "Config.with_clients: clients < 1")
    (fun () -> ignore (Config.with_clients Config.default 0))

let config_validate_catches_bad_fields () =
  let ok = tiny () in
  Config.validate ok;
  let bad name cfg =
    Alcotest.check_raises name (Invalid_argument ("Config.validate: " ^ name))
      (fun () -> Config.validate cfg)
  in
  bad "warmup_s" { ok with Config.warmup_s = ok.Config.duration_s };
  bad "red thresholds" { ok with Config.red_max_th = ok.Config.red_min_th };
  bad "packet_bytes" { ok with Config.packet_bytes = 20 };
  bad "adv_window" { ok with Config.adv_window = 0 }

(* The run turns every RTO parameter into integer-nanosecond timer
   delays: a zero granularity makes each sample NaN and the run never
   finishes, and max_rto below min_rto clamps every timeout upward. *)
let config_rejects_bad_rto () =
  let ok = tiny () in
  let bad field rto =
    Alcotest.check_raises field
      (Invalid_argument ("Config.validate: rto." ^ field))
      (fun () -> Config.validate { ok with Config.rto })
  in
  let d = Transport.Rto.default_params in
  bad "granularity" { d with Transport.Rto.granularity = 0. };
  bad "granularity" { d with Transport.Rto.granularity = nan };
  bad "min_rto" { d with Transport.Rto.min_rto = -1. };
  bad "initial_rto" { d with Transport.Rto.initial_rto = 0. };
  bad "initial_rto" { d with Transport.Rto.initial_rto = infinity };
  bad "max_rto" { d with Transport.Rto.max_rto = 0.5; min_rto = 1.0 };
  bad "max_rto" { d with Transport.Rto.max_rto = Config.horizon_s };
  Config.validate
    { ok with Config.rto = { d with Transport.Rto.max_rto = d.min_rto } }

let config_pp_mentions_values () =
  let s = Format.asprintf "%a" Config.pp Config.default in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("table contains " ^ needle) true
        (Astring_like.contains s needle))
    [ "5 Mbps"; "1500 bytes"; "50 packets"; "20 packets" ]

(* ------------------------------------------------------------------ *)
(* Scenario *)

let scenario_ecn_labels () =
  Alcotest.(check string) "reno/ecn" "Reno/ECN" (Scenario.label Scenario.reno_ecn);
  Alcotest.(check string) "vegas/ared" "Vegas/ARED" (Scenario.label Scenario.vegas_ared);
  Alcotest.(check string) "sack" "SACK" (Scenario.label Scenario.sack);
  Alcotest.(check string) "sack/red" "SACK/RED" (Scenario.label Scenario.sack_red)

let run_ecn_end_to_end () =
  (* Heavy enough load that RED marks; ECN scenarios must react without
     losing goodput. *)
  let cfg = tiny ~clients:45 ~duration:60. ~warmup:10. () in
  let m = Run.run cfg Scenario.reno_ecn in
  Alcotest.(check bool) "marks applied" true (m.Metrics.ecn_marks > 0);
  Alcotest.(check bool) "senders reacted" true (m.Metrics.ecn_reactions > 0);
  Alcotest.(check bool) "delivering" true (m.Metrics.delivered > 10_000);
  (* Plain scenarios never mark. *)
  let plain = Run.run cfg Scenario.reno in
  Alcotest.(check int) "no marks on fifo" 0 plain.Metrics.ecn_marks;
  Alcotest.(check int) "no reactions on fifo" 0 plain.Metrics.ecn_reactions

let run_sack_end_to_end () =
  let cfg = tiny ~clients:45 ~duration:60. ~warmup:10. () in
  let m = Run.run cfg Scenario.sack in
  Alcotest.(check bool) "delivers" true (m.Metrics.delivered > 10_000);
  let reno = Run.run cfg Scenario.reno in
  Alcotest.(check bool)
    (Printf.sprintf "sack timeouts %d <= reno timeouts %d" m.Metrics.timeouts
       reno.Metrics.timeouts)
    true
    (m.Metrics.timeouts <= reno.Metrics.timeouts)

let run_ared_end_to_end () =
  let cfg = tiny ~clients:45 ~duration:60. ~warmup:10. () in
  let m = Run.run cfg Scenario.reno_ared in
  Alcotest.(check bool) "delivers" true (m.Metrics.delivered > 10_000);
  Alcotest.(check int) "ared does not mark" 0 m.Metrics.ecn_marks

let scenario_labels () =
  Alcotest.(check string) "udp" "UDP" (Scenario.label Scenario.udp);
  Alcotest.(check string) "reno" "Reno" (Scenario.label Scenario.reno);
  Alcotest.(check string) "reno/red" "Reno/RED" (Scenario.label Scenario.reno_red);
  Alcotest.(check string) "delack" "Reno/DelayAck" (Scenario.label Scenario.reno_delack);
  Alcotest.(check string) "vegas/red" "Vegas/RED" (Scenario.label Scenario.vegas_red);
  Alcotest.(check string) "newreno" "NewReno" (Scenario.label Scenario.newreno)

let scenario_series_membership () =
  Alcotest.(check int) "six paper series" 6 (List.length Scenario.paper_series);
  Alcotest.(check int) "five tcp series" 5 (List.length Scenario.tcp_series);
  Alcotest.(check bool) "udp not in tcp series" false
    (List.exists (Scenario.equal Scenario.udp) Scenario.tcp_series);
  Alcotest.(check bool) "udp is not tcp" false (Scenario.is_tcp Scenario.udp);
  Alcotest.(check bool) "vegas is tcp" true (Scenario.is_tcp Scenario.vegas)

(* ------------------------------------------------------------------ *)
(* Analytic *)

let analytic_poisson_cov () =
  (* N=25 clients, 10 pkt/s, 1 s bin: mean 250, cov = 1/sqrt(250). *)
  let cfg = Config.with_clients Config.default 25 in
  check_close 1e-9 "cov" (1. /. sqrt 250.) (Analytic.poisson_cov cfg);
  check_close 1e-9 "mean" 250. (Analytic.poisson_mean_per_bin cfg)

let analytic_cov_decreases_with_clients () =
  let cov n = Analytic.poisson_cov (Config.with_clients Config.default n) in
  Alcotest.(check bool) "monotone" true (cov 10 > cov 20 && cov 20 > cov 40)

(* ------------------------------------------------------------------ *)
(* Fairness *)

let fairness_jain () =
  check_float "equal shares" 1. (Fairness.jain [| 5.; 5.; 5. |]);
  check_float "all zero" 1. (Fairness.jain [| 0.; 0. |]);
  (* One user hogging: 1/n *)
  check_float "monopoly" 0.25 (Fairness.jain [| 1.; 0.; 0.; 0. |]);
  Alcotest.(check bool) "skewed below 1" true (Fairness.jain [| 9.; 1. |] < 1.)

let fairness_max_min () =
  check_float "equal" 1. (Fairness.max_min_ratio [| 2.; 2. |]);
  check_float "ratio" 3. (Fairness.max_min_ratio [| 6.; 2. |]);
  Alcotest.(check bool) "zero min" true
    (Fairness.max_min_ratio [| 1.; 0. |] = infinity)

(* ------------------------------------------------------------------ *)
(* Dumbbell wiring *)

let dumbbell_tcp_roundtrip () =
  let cfg = tiny ~clients:2 () in
  let net = Dumbbell.create cfg Scenario.reno in
  (* Submit directly, no sources. *)
  Dumbbell.sink net 0 5;
  Dumbbell.sink net 1 3;
  Sim_engine.Scheduler.run
    ~until:(Sim_engine.Time.of_sec 30.)
    (Dumbbell.scheduler net);
  Alcotest.(check (array int)) "per-client delivery" [| 5; 3 |]
    (Dumbbell.per_client_delivered net);
  Alcotest.(check int) "total" 8 (Dumbbell.delivered_total net);
  Dumbbell.finish net (fun e ->
      Alcotest.(check int) "tcp segments sent" 8
        e.Meter.tcp_stats.Transport.Tcp_stats.segments_sent)

let dumbbell_udp_roundtrip () =
  let cfg = tiny ~clients:3 () in
  let net = Dumbbell.create cfg Scenario.udp in
  List.iter (fun i -> Dumbbell.sink net i 10) [ 0; 1; 2 ];
  Sim_engine.Scheduler.run
    ~until:(Sim_engine.Time.of_sec 10.)
    (Dumbbell.scheduler net);
  Alcotest.(check int) "all arrive" 30 (Dumbbell.delivered_total net);
  Dumbbell.finish net (fun e ->
      Alcotest.(check int) "datagrams sent" 30 e.Meter.segments_sent;
      Alcotest.(check int) "zero tcp stats" 0
        e.Meter.tcp_stats.Transport.Tcp_stats.segments_sent)

let dumbbell_delivery_latency () =
  (* One packet: 2 serializations (1500B at 10 and 5 Mbps) + 0.5 s one-way
     propagation. *)
  let cfg = tiny ~clients:1 () in
  let net = Dumbbell.create cfg Scenario.udp in
  Dumbbell.sink net 0 1;
  let sched = Dumbbell.scheduler net in
  Sim_engine.Scheduler.run sched;
  let expected = 0.25 +. 0.25 +. (1500. *. 8. /. 10e6) +. (1500. *. 8. /. 5e6) in
  (* The run clock stops at the last event = delivery time. *)
  check_close 1e-6 "one-way latency" expected
    (Sim_engine.Time.to_sec (Sim_engine.Scheduler.now sched));
  Alcotest.(check int) "delivered" 1 (Dumbbell.delivered_total net)

(* A host's down link ends at a sink: the endpoint reads the packet,
   then the handle is freed, so any later use of it raises. *)
let dumbbell_endpoint_sinks () =
  let module Pool = Netsim.Packet_pool in
  let sched = Sim_engine.Scheduler.create () in
  let pool = Pool.create () in
  let sent = ref [] and acks = ref [] in
  let senders, receivers =
    Dumbbell.tcp_groups ~recorder:None (tiny ()) Scenario.reno sched pool
      ~capacity:1
      ~data:(fun ~flow:_ h -> sent := h :: !sent)
      ~ack:(fun ~flow:_ h -> acks := h :: !acks)
  in
  let sender = Transport.Tcp_sender.attach senders ~flow:0 ~src:1 ~dst:2 () in
  let receiver =
    Transport.Tcp_receiver.attach receivers ~flow:0 ~src:2 ~dst:1 ()
  in
  let only what = function
    | [ h ] -> h
    | l -> Alcotest.failf "%d %s, expected one" (List.length l) what
  in
  Transport.Tcp_sender.write sender 1;
  let data = only "segments" !sent in
  Dumbbell.receiver_sink pool receiver data;
  Alcotest.(check int) "receiver saw the segment" 1
    (Transport.Tcp_receiver.delivered receiver);
  let ack = only "ACKs" !acks in
  Alcotest.(check int) "in flight before the ACK" 1
    (Transport.Tcp_sender.flight sender);
  Dumbbell.sender_sink pool sender ack;
  Alcotest.(check int) "sender saw the ACK" 0
    (Transport.Tcp_sender.flight sender);
  Alcotest.(check int) "freed at the sinks" 0 (Pool.live pool);
  List.iter
    (fun (what, h) ->
      match Pool.flow pool h with
      | _ -> Alcotest.failf "%s handle survived its sink" what
      | exception Invalid_argument _ -> ())
    [ ("data", data); ("ACK", ack) ];
  Transport.Tcp_sender.detach sender;
  Transport.Tcp_receiver.detach receiver

(* ------------------------------------------------------------------ *)
(* Run + Metrics *)

let run_every_scenario_smoke () =
  (* One tiny run of every scenario the library exposes: builds, delivers,
     and respects conservation. *)
  let cfg = tiny ~clients:5 ~duration:30. ~warmup:5. () in
  List.iter
    (fun scenario ->
      let m = Run.run cfg scenario in
      let label = Scenario.label m.Metrics.scenario in
      Alcotest.(check bool) (label ^ " delivers") true (m.Metrics.delivered > 500);
      Alcotest.(check bool)
        (label ^ " conservation")
        true
        (m.Metrics.delivered <= m.Metrics.gateway_arrivals))
    [
      Scenario.udp; Scenario.reno; Scenario.reno_red; Scenario.reno_delack;
      Scenario.vegas; Scenario.vegas_red; Scenario.tahoe; Scenario.newreno;
      Scenario.sack; Scenario.sack_red; Scenario.reno_ecn; Scenario.vegas_ecn;
      Scenario.reno_ared; Scenario.vegas_ared; Scenario.reno_sfq;
      Scenario.vegas_sfq;
    ]

let run_conservation () =
  let cfg = tiny ~clients:6 ~duration:60. () in
  let m = Run.run cfg Scenario.reno in
  (* Conservation: everything the gateway accepted either reached the
     server or is still in flight; with a drained run, delivered (plus
     receiver-side duplicates) accounts for arrivals - drops. *)
  Alcotest.(check bool) "arrivals >= delivered" true
    (m.Metrics.gateway_arrivals >= m.Metrics.delivered);
  Alcotest.(check bool) "sent >= offered - backlog" true
    (m.Metrics.segments_sent <= m.Metrics.offered + m.Metrics.retransmits);
  Alcotest.(check bool) "offered positive" true (m.Metrics.offered > 0);
  Alcotest.(check bool) "cov positive" true (m.Metrics.cov > 0.)

let run_uncongested_delivers_everything () =
  let cfg = tiny ~clients:4 ~duration:60. () in
  let m = Run.run cfg Scenario.reno in
  (* 4 clients: far below saturation; everything delivered except what is
     still in flight at the horizon (~1 s RTT x 40 pkt/s). *)
  Alcotest.(check bool)
    (Printf.sprintf "delivered %d of %d" m.Metrics.delivered m.Metrics.offered)
    true
    (m.Metrics.delivered >= m.Metrics.offered - 60);
  Alcotest.(check (float 0.01)) "no loss" 0. m.Metrics.loss_pct;
  Alcotest.(check int) "no timeouts" 0 m.Metrics.timeouts

let run_udp_cov_tracks_poisson () =
  let cfg = tiny ~clients:10 ~duration:120. ~warmup:10. () in
  let m = Run.run cfg Scenario.udp in
  let ratio = m.Metrics.cov /. m.Metrics.analytic_cov in
  Alcotest.(check bool)
    (Printf.sprintf "udp cov ratio %.3f in [0.8, 1.25]" ratio)
    true
    (ratio > 0.8 && ratio < 1.25)

let run_overload_saturates_throughput () =
  let cfg = tiny ~clients:60 ~duration:40. ~warmup:10. () in
  let m = Run.run cfg Scenario.udp in
  (* Bottleneck 416.7 pkt/s; UDP offered ~600 pkt/s: deliveries pin to
     capacity and the surplus is dropped. *)
  let capacity = 416.7 *. cfg.Config.duration_s in
  Alcotest.(check bool) "throughput at capacity" true
    (float_of_int m.Metrics.delivered > 0.9 *. capacity
    && float_of_int m.Metrics.delivered <= 1.02 *. capacity);
  Alcotest.(check bool) "substantial loss" true (m.Metrics.loss_pct > 10.)

let run_traces_requested_clients () =
  let cfg = tiny ~clients:3 ~duration:20. () in
  let m = Run.run ~trace_clients:[ 0; 2 ] cfg Scenario.vegas in
  Alcotest.(check (list int)) "trace ids" [ 0; 2 ] (List.map fst m.Metrics.cwnd_traces);
  List.iter
    (fun (_, s) ->
      Alcotest.(check bool) "trace non-empty" true (Netstats.Series.length s > 0))
    m.Metrics.cwnd_traces

let run_rejects_out_of_range_trace_clients () =
  (* A cwnd-trace index outside the client population is the caller's
     error on either engine, and is reported before any topology is
     built (the classic engine never reaches [prepare]). *)
  List.iter
    (fun (shards, index) ->
      let cfg =
        { (tiny ~clients:4 ~duration:5. ~warmup:1. ()) with Config.shards }
      in
      let built = ref false in
      let prepare =
        if shards = 0 then Some (fun (_ : Dumbbell.t) -> built := true)
        else None
      in
      Alcotest.check_raises
        (Printf.sprintf "index %d, shards %d" index shards)
        (Invalid_argument
           (Printf.sprintf
              "Run.run: trace_clients index %d is out of range for 4 client(s)"
              index))
        (fun () ->
          ignore
            (Run.run ?prepare ~trace_clients:[ 0; index ] cfg Scenario.reno));
      Alcotest.(check bool) "nothing built" false !built)
    [ (0, 10); (0, -1); (1, 10); (2, 4) ]

let run_cov_ci_present () =
  let cfg = tiny ~clients:10 ~duration:120. ~warmup:10. () in
  let m = Run.run cfg Scenario.udp in
  Alcotest.(check bool) "ci positive" true (m.Metrics.cov_ci95 > 0.);
  (* The Poisson truth should be inside the (generous) interval. *)
  Alcotest.(check bool)
    (Printf.sprintf "|%.4f - %.4f| < 3x%.4f" m.Metrics.cov m.Metrics.analytic_cov
       m.Metrics.cov_ci95)
    true
    (Float.abs (m.Metrics.cov -. m.Metrics.analytic_cov) < 3. *. m.Metrics.cov_ci95)

let run_trace_digest_pinned () =
  (* Trace-equivalence gate for the packet-pool refactor: the full NDJSON
     event stream of a reference run is pinned by digest. Any change to
     packet identity, event ordering, or numeric paths that alters a single
     byte of the trace fails here. The digest was recorded from the
     heap-packet implementation before pooling, so passing means the pooled
     engine is event-for-event identical to it. *)
  let cfg = tiny ~clients:4 ~duration:5. ~warmup:1. () in
  let probe = Telemetry.Probe.create () in
  let buf = Buffer.create (1 lsl 15) in
  ignore
    (Telemetry.Event_bus.subscribe probe.Telemetry.Probe.bus (fun ev ->
         Buffer.add_string buf (Telemetry.Event_bus.to_ndjson ev);
         Buffer.add_char buf '\n'));
  ignore (Run.run ~probe cfg Scenario.reno);
  let trace = Buffer.contents buf in
  Alcotest.(check int) "trace length" 28432 (String.length trace);
  Alcotest.(check string) "trace digest" "06737bcfca22b5f3d9986c42f3195862"
    (Digest.to_hex (Digest.string trace))

let run_trace_digest_pinned_flow_table () =
  (* Second trace-equivalence gate, recorded from the group/flow-table
     transport engine right after the struct-of-arrays conversion. It
     exercises the paths the first pin does not: delayed ACKs (the
     receiver's 200 ms keyed timer) and RED (gateway marks/drops feeding
     ECE echoes and recovery). Together the two pins bracket the
     conversion: the first proves the slab engine matches the
     record-per-flow engine byte for byte, this one freezes the slab
     engine's own behaviour for future refactors. *)
  let cfg = tiny ~clients:4 ~duration:5. ~warmup:1. () in
  let scenario =
    {
      Scenario.transport = Scenario.Tcp { cc = Scenario.Reno; delayed_ack = true };
      gateway = Scenario.Red;
    }
  in
  let probe = Telemetry.Probe.create () in
  let buf = Buffer.create (1 lsl 15) in
  ignore
    (Telemetry.Event_bus.subscribe probe.Telemetry.Probe.bus (fun ev ->
         Buffer.add_string buf (Telemetry.Event_bus.to_ndjson ev);
         Buffer.add_char buf '\n'));
  ignore (Run.run ~probe cfg scenario);
  let trace = Buffer.contents buf in
  Alcotest.(check int) "trace length" 28416 (String.length trace);
  Alcotest.(check string) "trace digest" "9fa84ea08a69d641d283c03c86f01029"
    (Digest.to_hex (Digest.string trace))

let run_trace_digest_pinned_sharded () =
  (* Third trace-equivalence gate, for the sharded conservative-PDES
     engine: the same Reno/RED + delayed-ACK workload as the flow-table
     pin, run under [shards >= 1], with the full NDJSON stream pinned at
     every shard count. The sharded engine intentionally does NOT match
     the classic pin above (its window barriers order same-tick events
     by (time, flow) instead of global insertion order), so it carries
     its own digest — and the same digest must come out of 1, 2 and 4
     shards, which is the engine's bit-identity promise at the trace
     level, not just the metrics level. *)
  let scenario =
    {
      Scenario.transport = Scenario.Tcp { cc = Scenario.Reno; delayed_ack = true };
      gateway = Scenario.Red;
    }
  in
  List.iter
    (fun shards ->
      let cfg = { (tiny ~clients:4 ~duration:5. ~warmup:1. ()) with Config.shards } in
      let probe = Telemetry.Probe.create () in
      let buf = Buffer.create (1 lsl 15) in
      ignore
        (Telemetry.Event_bus.subscribe probe.Telemetry.Probe.bus (fun ev ->
             Buffer.add_string buf (Telemetry.Event_bus.to_ndjson ev);
             Buffer.add_char buf '\n'));
      ignore (Run.run ~probe cfg scenario);
      let trace = Buffer.contents buf in
      let label fmt = Printf.sprintf fmt shards in
      Alcotest.(check int) (label "trace length, %d shard(s)") 30424
        (String.length trace);
      Alcotest.(check string)
        (label "trace digest, %d shard(s)")
        "09da9bba46244c470fb87f871e2e72bd"
        (Digest.to_hex (Digest.string trace)))
    [ 1; 2; 4 ]

(* Everything a run measured, in one digest: the JSON metrics document
   plus the per-client and per-sample fields it omits. Floats enter as
   [%h], so a one-ulp change shows. *)
let metrics_digest (m : Metrics.t) =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Json.to_string (Export.metrics_to_json m));
  Array.iter (Printf.bprintf b " %d") m.Metrics.per_client_delivered;
  let series s = Netstats.Series.iter (Printf.bprintf b " %h:%h") s in
  List.iter
    (fun (i, s) ->
      Printf.bprintf b "\ncwnd %d" i;
      series s)
    m.Metrics.cwnd_traces;
  Option.iter
    (fun s ->
      Buffer.add_string b "\nqueue";
      series s)
    m.Metrics.queue_series;
  Option.iter (Printf.bprintf b "\nsync %h") m.Metrics.sync_index;
  Digest.to_hex (Digest.string (Buffer.contents b))

let run_metrics_digest_pinned () =
  (* Metrics-equivalence gate for the bottleneck measurement both
     engines share: the full metrics of a congested run (N = 50 is past
     saturation, so drops, timeouts and drop runs are all non-zero) are
     pinned by digest on the classic engine and on the sharded one, with
     and without the fluid background, and with every optional monitor
     on ("observed": burst aggregator and oscillation detector, per-flow
     sync binners, the queue sampler and two cwnd traces). Shard counts
     1 and 2 must agree, as the sharded engine promises. *)
  let pin label ?(shards = [ 0 ]) ?(background = 0) ~observed scenario
      expected =
    List.iter
      (fun shards ->
        let cfg =
          {
            (tiny ~clients:50 ~duration:10. ~warmup:2. ()) with
            Config.shards;
            background;
          }
        in
        let m =
          if observed then begin
            let probe = Telemetry.Probe.create () in
            Telemetry.Probe.set_burst probe (Some Telemetry.Burst.default_config);
            Run.run ~probe ~trace_clients:[ 0; 7 ] ~sample_queue:true
              ~measure_sync:true cfg scenario
          end
          else Run.run cfg scenario
        in
        Alcotest.(check string)
          (Printf.sprintf "%s, shards %d" label shards)
          expected (metrics_digest m))
      shards
  in
  pin "reno" ~observed:true Scenario.reno "f5d8bd8e0a142cf128675f72a29b50f2";
  pin "reno/red" ~observed:true Scenario.reno_red
    "c856e27c848cce43015b0ff8cdf315b6";
  pin "reno/red + background" ~observed:true ~background:30 Scenario.reno_red
    "412c1f0586f25d914f8461b9a438de2c";
  pin "vegas" ~observed:false Scenario.vegas "ff8414783c1ee7e8f65de5754f5d7acb";
  pin "reno/ecn" ~observed:false Scenario.reno_ecn
    "9a13d62f67709aef477cf79c70698620";
  pin "reno/sfq" ~observed:true Scenario.reno_sfq
    "ea3db64e99d2adf161a6982d8af0f442";
  pin "udp" ~observed:true Scenario.udp "0039e8a21d4d2384e5e5172284789371";
  pin "sharded reno/red" ~observed:true ~shards:[ 1; 2 ] Scenario.reno_red
    "bb53f76984fed065446643471efb6719";
  pin "sharded reno/red + background" ~observed:true ~shards:[ 1; 2 ]
    ~background:30 Scenario.reno_red "012fa2fc3cc612b6b0276f176a27be92";
  pin "sharded vegas" ~observed:false ~shards:[ 1; 2 ] Scenario.vegas
    "9f5f4c0dba4a52666a2ed43b0446a476";
  pin "sharded reno/ecn" ~observed:false ~shards:[ 1; 2 ] Scenario.reno_ecn
    "5437e2538d5e8070bfa0b43349ab7424";
  pin "sharded reno/sfq + background" ~observed:true ~shards:[ 1; 2 ]
    ~background:30 Scenario.reno_sfq "1fb8780efdfd9e32e10e1df4d71b555b";
  pin "sharded udp" ~observed:true ~shards:[ 1; 2 ] Scenario.udp
    "1fb524a0a91780e3752922e1f6f0a500"

let run_recorder_parity_with_live_tracer () =
  (* One observation path, pinned end to end: the bus hears a run only
     as the replay of its recorded parity records, and the same
     recording pushed through the segment write / read / decode pipeline
     the [trace decode] CLI uses must give the same bytes — on a FIFO run
     without drops, a RED run (queue decisions) and a FIFO run that drops
     (drop-tail forced drops). *)
  let check label ~clients scenario ~queue_events =
    let cfg = tiny ~clients ~duration:5. ~warmup:1. () in
    let probe = Telemetry.Probe.create () in
    Telemetry.Probe.set_recording probe
      {
        Telemetry.Recorder.capacity = 1 lsl 12;
        overflow = Telemetry.Recorder.Grow;
        lifecycle = false;
      };
    let live = Buffer.create (1 lsl 15) in
    ignore
      (Telemetry.Event_bus.subscribe probe.Telemetry.Probe.bus (fun ev ->
           Buffer.add_string live (Telemetry.Event_bus.to_ndjson ev);
           Buffer.add_char live '\n'));
    ignore (Run.run ~probe cfg scenario);
    let path = Filename.temp_file "burstsim_parity" ".bin" in
    let decoded = Buffer.create (1 lsl 15) in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let oc = open_out_bin path in
        Telemetry.Probe.write_segments probe oc;
        close_out oc;
        let ic = open_in_bin path in
        let segments =
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () -> Telemetry.Recorder.read_segments ic)
        in
        List.iter
          (fun seg ->
            let lookup = Telemetry.Recorder.seg_lookup seg in
            Telemetry.Recorder.iter_segment seg (fun ~lane:_ ~seq:_ words off ->
                Buffer.add_string decoded
                  (Telemetry.Json.to_string
                     (Telemetry.Record.json_of_record ~lookup words off));
                Buffer.add_char decoded '\n'))
          segments);
    let live = Buffer.contents live in
    Alcotest.(check bool) (label ^ ": bus replay non-empty") true (live <> "");
    Alcotest.(check bool)
      (label ^ ": queue decisions present")
      queue_events
      (Astring_like.contains live "\"event\":\"queue\"");
    Alcotest.(check string)
      (label ^ ": segment decode equals bus replay")
      live (Buffer.contents decoded)
  in
  check "reno" ~clients:4 Scenario.reno ~queue_events:false;
  check "reno/red" ~clients:20 Scenario.reno_red ~queue_events:true;
  check "reno, dropping" ~clients:20 Scenario.reno ~queue_events:true

let run_lifecycle_recording_pinned () =
  (* Lifecycle-equivalence gate: the pins above see only the parity
     records the bus replays, so the lifecycle records (congestion
     phases, RTT samples, receiver reordering and duplicates, the
     router's forwarded retransmissions, run markers) are pinned here,
     as the bytes of the segment a congested classic run writes — what
     `run --scenario reno -n 40 --duration 20 --record-out` writes with
     the CLI's default seed. *)
  let cfg =
    { (tiny ~clients:40 ~duration:20. ~warmup:5. ()) with Config.seed = 0x1CDC5L }
  in
  let probe = Telemetry.Probe.create () in
  Telemetry.Probe.set_recording probe Telemetry.Recorder.default_config;
  ignore (Run.run ~probe ~trace_clients:[ 0 ] cfg Scenario.reno);
  let path = Filename.temp_file "burstsim_lifecycle" ".bin" in
  let bytes, segments =
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Out_channel.with_open_bin path (Telemetry.Probe.write_segments probe);
        In_channel.with_open_bin path (fun ic ->
            let bytes = In_channel.input_all ic in
            seek_in ic 0;
            (bytes, Telemetry.Recorder.read_segments ic)))
  in
  let counts = Array.make (Telemetry.Record.max_kind + 1) 0 in
  List.iter
    (fun seg ->
      Telemetry.Recorder.iter_segment seg (fun ~lane:_ ~seq:_ words off ->
          let kind = words.(off + 1) in
          counts.(kind) <- counts.(kind) + 1))
    segments;
  List.iter
    (fun (kind, expected) ->
      Alcotest.(check int) (Telemetry.Record.kind_label kind) expected counts.(kind))
    Telemetry.Record.
      [
        (tcp_timeout, 26); (router_rtx_forward, 199); (rcv_duplicate, 77);
        (rcv_out_of_order, 239); (tcp_phase, 167); (tcp_rtt, 4809);
        (run_start, 1); (run_end, 1);
      ];
  Alcotest.(check int) "segment length" 1091875 (String.length bytes);
  Alcotest.(check string) "segment digest" "52c7dde607b35f2173e8e9ed26fcefe3"
    (Digest.to_hex (Digest.string bytes))

let run_releases_every_pooled_packet () =
  (* Run.run drains the network at the horizon and fails loudly if any
     packet slot is still live; a normal run across queue disciplines must
     therefore complete without raising. *)
  List.iter
    (fun scenario -> ignore (Run.run (tiny ~clients:8 ~duration:20. ()) scenario))
    [ Scenario.reno; Scenario.reno_red; Scenario.reno_sfq; Scenario.udp ]

let run_deterministic () =
  let cfg = tiny ~clients:5 ~duration:30. () in
  let a = Run.run cfg Scenario.reno and b = Run.run cfg Scenario.reno in
  check_float "cov identical" a.Metrics.cov b.Metrics.cov;
  Alcotest.(check int) "delivered identical" a.Metrics.delivered b.Metrics.delivered;
  Alcotest.(check int) "timeouts identical" a.Metrics.timeouts b.Metrics.timeouts

let run_seed_sensitivity () =
  let cfg = tiny ~clients:5 ~duration:30. () in
  let a = Run.run cfg Scenario.reno in
  let b = Run.run { cfg with Config.seed = 999L } Scenario.reno in
  Alcotest.(check bool) "different seeds differ" true
    (a.Metrics.offered <> b.Metrics.offered || a.Metrics.cov <> b.Metrics.cov)

(* ------------------------------------------------------------------ *)
(* The paper's headline comparisons, at reduced scale *)

let paper_shape_reno_burstier_than_udp () =
  let cfg = tiny ~clients:45 ~duration:120. ~warmup:30. () in
  let reno = Run.run cfg Scenario.reno in
  let udp = Run.run cfg Scenario.udp in
  Alcotest.(check bool)
    (Printf.sprintf "reno cov %.4f > udp cov %.4f" reno.Metrics.cov udp.Metrics.cov)
    true
    (reno.Metrics.cov > 1.3 *. udp.Metrics.cov)

let paper_shape_vegas_smoother_than_reno () =
  let cfg = tiny ~clients:50 ~duration:120. ~warmup:30. () in
  let reno = Run.run cfg Scenario.reno in
  let vegas = Run.run cfg Scenario.vegas in
  Alcotest.(check bool)
    (Printf.sprintf "vegas %.4f < reno %.4f" vegas.Metrics.cov reno.Metrics.cov)
    true
    (vegas.Metrics.cov < reno.Metrics.cov)

let paper_shape_reno_loss_bursts () =
  (* §3.4: Reno generates "large sequences of packet losses"; Vegas does
     not. The longest consecutive-drop run of a single seed is an extreme
     statistic and therefore noisy, so take the max over a few replicate
     seeds before comparing. *)
  let seeds = [ 1L; 2L; 3L ] in
  let max_run scenario =
    List.fold_left
      (fun acc seed ->
        let cfg =
          { (tiny ~clients:55 ~duration:150. ~warmup:30. ()) with Config.seed }
        in
        Stdlib.max acc (Run.run cfg scenario).Metrics.drop_run_max)
      0 seeds
  in
  let reno = max_run Scenario.reno in
  let vegas = max_run Scenario.vegas in
  Alcotest.(check bool)
    (Printf.sprintf "reno max run %d >= vegas max run %d" reno vegas)
    true (reno >= vegas);
  Alcotest.(check bool) "reno has multi-packet bursts" true (reno >= 3)

let paper_shape_timeout_ratio () =
  let cfg = tiny ~clients:50 ~duration:120. ~warmup:30. () in
  let reno = Run.run cfg Scenario.reno in
  let vegas = Run.run cfg Scenario.vegas in
  Alcotest.(check bool) "reno ratio higher" true
    (reno.Metrics.timeout_dupack_ratio > vegas.Metrics.timeout_dupack_ratio)

let run_md1_queue_validation () =
  (* UDP with fixed-size packets through the gateway is literally M/D/1:
     the sampled queue length must match Pollaczek-Khinchine. *)
  let cfg = tiny ~clients:20 ~duration:300. ~warmup:0. () in
  let m = Run.run ~sample_queue:true cfg Scenario.udp in
  let service = 1500. *. 8. /. 5e6 in
  let lambda = 20. /. cfg.Config.mean_interarrival_s in
  let rho = lambda *. service in
  (* The sampler sees waiting packets only (the one in service has left
     the queue), so compare against L - rho. *)
  let expected = Oracle.md1_mean_queue ~rho -. rho in
  let measured =
    (Netstats.Series.value_summary (Option.get m.Metrics.queue_series)).Netstats.Summary.mean
  in
  Alcotest.(check bool)
    (Printf.sprintf "measured %.3f vs M/D/1 %.3f" measured expected)
    true
    (measured > 0.7 *. expected && measured < 1.3 *. expected)

let run_sfq_end_to_end () =
  (* A single seed is too noisy for the cov comparison (the two are within
     ~10% of each other), so compare means over a few replicate seeds. *)
  let seeds = [ 1L; 2L; 3L ] in
  let mean_cov scenario =
    let covs =
      List.map
        (fun seed ->
          let cfg =
            { (tiny ~clients:50 ~duration:120. ~warmup:30. ()) with Config.seed }
          in
          let m = Run.run cfg scenario in
          Alcotest.(check bool) "delivers" true (m.Metrics.delivered > 20_000);
          m.Metrics.cov)
        seeds
    in
    List.fold_left ( +. ) 0. covs /. float_of_int (List.length covs)
  in
  let sfq = mean_cov Scenario.reno_sfq in
  let plain = mean_cov Scenario.reno in
  Alcotest.(check bool)
    (Printf.sprintf "sfq mean cov %.4f < reno mean cov %.4f" sfq plain)
    true (sfq < plain)

(* ------------------------------------------------------------------ *)
(* Synchronization *)

let sync_udp_near_zero () =
  let cfg = tiny ~clients:10 ~duration:120. ~warmup:20. () in
  let m = Run.run ~measure_sync:true cfg Scenario.udp in
  match m.Metrics.sync_index with
  | None -> Alcotest.fail "expected sync index"
  | Some v ->
      Alcotest.(check bool) (Printf.sprintf "udp sync %.4f ~ 0" v) true
        (Float.abs v < 0.05)

let sync_reno_heavy_load_positive () =
  let cfg = tiny ~clients:55 ~duration:150. ~warmup:30. () in
  let reno = Run.run ~measure_sync:true cfg Scenario.reno in
  let udp = Run.run ~measure_sync:true cfg Scenario.udp in
  match (reno.Metrics.sync_index, udp.Metrics.sync_index) with
  | Some r, Some u ->
      Alcotest.(check bool)
        (Printf.sprintf "reno sync %.4f > udp sync %.4f + 0.02" r u)
        true
        (r > u +. 0.02)
  | _ -> Alcotest.fail "expected sync indices"

let sync_not_measured_by_default () =
  let cfg = tiny ~clients:3 ~duration:10. () in
  let m = Run.run cfg Scenario.reno in
  Alcotest.(check bool) "none" true (m.Metrics.sync_index = None)

let sync_stagger_and_spread_accepted () =
  let cfg =
    { (tiny ~clients:4 ~duration:20. ()) with
      Config.start_stagger_s = 5.;
      client_delay_spread_s = 0.1 }
  in
  let m = Run.run ~measure_sync:true cfg Scenario.reno in
  Alcotest.(check bool) "runs and measures" true (m.Metrics.sync_index <> None);
  Alcotest.(check bool) "delivers" true (m.Metrics.delivered > 0)

(* ------------------------------------------------------------------ *)
(* Json and Export *)

let json_basic_roundtrip () =
  let v =
    Json.Obj
      [
        ("name", Json.String "reno \"fast\"\n");
        ("count", Json.Int 42);
        ("pi", Json.Float 3.25);
        ("flag", Json.Bool true);
        ("nothing", Json.Null);
        ("xs", Json.List [ Json.Int 1; Json.Float 0.5; Json.String "x" ]);
      ]
  in
  match Json.parse (Json.to_string v) with
  | Ok parsed -> Alcotest.(check bool) "roundtrip" true (parsed = v)
  | Error e -> Alcotest.fail e

let json_parse_errors () =
  (match Json.parse "{\"a\": }" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error");
  (match Json.parse "[1, 2" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error");
  match Json.parse "42 trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error"

let json_member_access () =
  match Json.parse "{\"cov\": 0.25, \"n\": 3}" with
  | Ok v ->
      Alcotest.(check (option (float 1e-9))) "float field" (Some 0.25)
        (Option.bind (Json.member "cov" v) Json.to_float);
      Alcotest.(check (option (float 1e-9))) "int widens" (Some 3.)
        (Option.bind (Json.member "n" v) Json.to_float);
      Alcotest.(check bool) "missing" true (Json.member "zzz" v = None)
  | Error e -> Alcotest.fail e

let json_roundtrip_property =
  QCheck.Test.make ~name:"json roundtrip" ~count:300
    QCheck.(
      let base =
        oneof
          [
            map (fun i -> Json.Int i) small_signed_int;
            map (fun f -> Json.Float f) (float_bound_exclusive 1000.);
            map (fun s -> Json.String s) (string_small_of (Gen.char_range 'a' 'z'));
            map (fun b -> Json.Bool b) bool;
            always Json.Null;
          ]
      in
      map (fun xs -> Json.List xs) (small_list base))
    (fun v -> Json.parse (Json.to_string v) = Ok v)

let export_csv_shape () =
  let cfg = tiny ~clients:2 ~duration:10. () in
  let m = Run.run cfg Scenario.reno in
  let row = Export.metrics_to_csv_row m in
  Alcotest.(check int) "field count"
    (List.length (String.split_on_char ',' Export.csv_header))
    (List.length (String.split_on_char ',' row));
  Alcotest.(check bool) "starts with scenario" true
    (String.length row > 4 && String.sub row 0 4 = "Reno")

let export_json_valid_and_complete () =
  let cfg = tiny ~clients:2 ~duration:10. () in
  let sweep = [ (Scenario.reno, [ Run.run cfg Scenario.reno ]) ] in
  let doc = Json.to_string (Export.sweep_to_json cfg sweep) in
  match Json.parse doc with
  | Error e -> Alcotest.fail e
  | Ok v ->
      Alcotest.(check bool) "has config" true (Json.member "config" v <> None);
      (match Json.member "results" v with
      | Some (Json.List [ r ]) ->
          Alcotest.(check bool) "cov present" true
            (Option.bind (Json.member "cov" r) Json.to_float <> None)
      | _ -> Alcotest.fail "expected one result")

let run_delay_metrics_sane () =
  (* Uncongested: one-way delay ~ 0.5 s propagation + ~4 ms serialization. *)
  let cfg = tiny ~clients:2 ~duration:30. ~warmup:5. () in
  let m = Run.run cfg Scenario.udp in
  Alcotest.(check bool)
    (Printf.sprintf "mean delay %.4f ~ 0.506" m.Metrics.delay_mean_s)
    true
    (m.Metrics.delay_mean_s > 0.5 && m.Metrics.delay_mean_s < 0.53);
  Alcotest.(check bool) "p99 >= mean" true
    (m.Metrics.delay_p99_s >= m.Metrics.delay_mean_s -. 1e-6);
  (* Saturated: the full 50-packet buffer adds 120 ms at the p99. *)
  let cfg60 = tiny ~clients:60 ~duration:40. ~warmup:10. () in
  let m60 = Run.run cfg60 Scenario.udp in
  Alcotest.(check bool)
    (Printf.sprintf "saturated p99 %.3f ~ 0.625" m60.Metrics.delay_p99_s)
    true
    (m60.Metrics.delay_p99_s > 0.6 && m60.Metrics.delay_p99_s < 0.65)

(* ------------------------------------------------------------------ *)
(* Two-way traffic *)

let twoway_oneway_baseline () =
  (* With no reverse flows the wiring must behave like the dumbbell:
     everything offered is delivered, low burstiness inflation. *)
  let cfg = tiny ~clients:6 ~duration:60. ~warmup:10. () in
  let r = Twoway.run cfg ~cc:Scenario.Reno ~reverse_clients:0 in
  Alcotest.(check int) "no reverse traffic" 0 r.Twoway.reverse_delivered;
  Alcotest.(check bool) "forward delivers" true (r.Twoway.forward_delivered > 3000);
  Alcotest.(check (float 0.01)) "no loss" 0. r.Twoway.forward_loss_pct

let twoway_ack_compression_hurts_reno () =
  let cfg = tiny ~clients:30 ~duration:150. ~warmup:30. () in
  let quiet = Twoway.run cfg ~cc:Scenario.Reno ~reverse_clients:0 in
  let busy = Twoway.run cfg ~cc:Scenario.Reno ~reverse_clients:30 in
  Alcotest.(check bool)
    (Printf.sprintf "cov %.4f -> %.4f with reverse load" quiet.Twoway.forward_cov
       busy.Twoway.forward_cov)
    true
    (busy.Twoway.forward_cov > 1.3 *. quiet.Twoway.forward_cov);
  Alcotest.(check bool) "reverse flows deliver" true
    (busy.Twoway.reverse_delivered > 10_000)

let twoway_validates () =
  Alcotest.check_raises "negative" (Invalid_argument "Twoway.run: negative reverse_clients")
    (fun () ->
      ignore (Twoway.run (tiny ()) ~cc:Scenario.Reno ~reverse_clients:(-1)))

(* Host ids follow the flow index, so no flow count makes two hosts
   share an id; both runs put more than 100 flows on one side. *)
let twoway_and_parking_past_100_flows () =
  let r =
    Twoway.run
      (tiny ~clients:4 ~duration:5. ~warmup:1. ())
      ~cc:Scenario.Reno ~reverse_clients:101
  in
  Alcotest.(check int) "reverse flows" 101 r.Twoway.reverse_clients;
  Alcotest.(check bool) "both directions deliver" true
    (r.Twoway.forward_delivered > 0 && r.Twoway.reverse_delivered > 0);
  let p =
    Parking_lot.run { Config.default with Config.duration_s = 5. }
      ~cc:Scenario.Reno ~hops:2 ~cross_per_hop:60
  in
  Alcotest.(check bool) "cross flows deliver" true
    (p.Parking_lot.cross_throughput_pps > 0.)

(* Both topologies end their runs with the dumbbell's leak checks: every
   link reclaimed, then no live pool slot and no flow row. A sink that
   never frees its packets leaves live slots behind, and the run raises
   instead of returning. Short horizons cut both mid-transfer, so the
   reclaim has queued and in-flight packets to free. *)
let twoway_and_parking_leak_checks () =
  let leak_free what f =
    match f () with
    | _ -> ()
    | exception Failure msg -> Alcotest.failf "%s: %s" what msg
  in
  leak_free "twoway" (fun () ->
      Twoway.run
        (tiny ~clients:3 ~duration:2.5 ~warmup:0.5 ())
        ~cc:Scenario.Reno ~reverse_clients:3);
  leak_free "parking lot" (fun () ->
      Parking_lot.run
        { Config.default with Config.duration_s = 2.5 }
        ~cc:Scenario.Vegas ~hops:2 ~cross_per_hop:2)

(* ------------------------------------------------------------------ *)
(* Parking lot *)

let parking_lone_flow_fills_pipe () =
  (* No cross traffic: a lone Vegas flow approaches the utilization bound
     of a deeply underbuffered path (B = 50 << BDP = 433 packets). *)
  let r =
    Parking_lot.run { Config.default with Config.duration_s = 300. }
      ~cc:Scenario.Vegas ~hops:2 ~cross_per_hop:0
  in
  Alcotest.(check bool)
    (Printf.sprintf "share %.2f > 0.5" r.Parking_lot.long_share)
    true
    (r.Parking_lot.long_share > 0.5);
  Alcotest.(check (float 0.)) "no cross traffic" 0. r.Parking_lot.cross_throughput_pps

let parking_long_flow_disadvantaged () =
  let r =
    Parking_lot.run { Config.default with Config.duration_s = 120. }
      ~cc:Scenario.Reno ~hops:3 ~cross_per_hop:1
  in
  Alcotest.(check bool) "long below fair share" true (r.Parking_lot.long_share < 0.9);
  Alcotest.(check bool) "cross beats long" true
    (r.Parking_lot.cross_throughput_pps > r.Parking_lot.long_throughput_pps);
  Alcotest.(check bool) "all flows alive" true (r.Parking_lot.long_throughput_pps > 1.)

let parking_capacity_respected () =
  let cap = 416.67 in
  let r =
    Parking_lot.run { Config.default with Config.duration_s = 120. }
      ~cc:Scenario.Vegas ~hops:2 ~cross_per_hop:2
  in
  (* Each hop carries the long flow plus its local cross flows. *)
  Alcotest.(check bool) "hop not oversubscribed" true
    (r.Parking_lot.long_throughput_pps
     +. (2. *. r.Parking_lot.cross_throughput_pps)
    < 1.05 *. cap)

let parking_validates () =
  Alcotest.check_raises "hops" (Invalid_argument "Parking_lot.run: hops < 1")
    (fun () ->
      ignore
        (Parking_lot.run { Config.default with Config.duration_s = 1. }
           ~cc:Scenario.Reno ~hops:0 ~cross_per_hop:1))

(* ------------------------------------------------------------------ *)
(* Sweep *)

let sweep_distinct_seeds () =
  let cfg = tiny () in
  let s1 = Sweep.seed_for cfg Scenario.reno 10 in
  let s2 = Sweep.seed_for cfg Scenario.reno 20 in
  let s3 = Sweep.seed_for cfg Scenario.vegas 10 in
  Alcotest.(check bool) "clients vary seed" true (s1 <> s2);
  Alcotest.(check bool) "scenario varies seed" true (s1 <> s3)

let sweep_over_clients_shapes () =
  let cfg = tiny ~duration:20. ~warmup:5. () in
  let ms = Sweep.over_clients cfg Scenario.udp [ 2; 4 ] in
  Alcotest.(check (list int)) "client counts" [ 2; 4 ]
    (List.map (fun m -> m.Metrics.clients) ms)

(* ------------------------------------------------------------------ *)
(* Figures and rendering *)

let figures_sweep_and_render () =
  let cfg = tiny ~duration:15. ~warmup:5. () in
  let sweep = Figures.run_sweep cfg [ 2; 3 ] in
  Alcotest.(check int) "six scenarios" 6 (List.length sweep);
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  Figures.fig2 ppf sweep cfg;
  Figures.fig3 ppf sweep;
  Figures.fig4 ppf sweep;
  Figures.fig13 ppf sweep;
  Format.pp_print_flush ppf ();
  let out = Buffer.contents buf in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("output mentions " ^ needle) true
        (Astring_like.contains out needle))
    [ "Figure 2"; "Figure 3"; "Figure 4"; "Figure 13"; "Reno/RED"; "Poisson" ]

let render_table_alignment () =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Render.table ppf ~header:[ "a"; "bb" ] ~rows:[ [ "xxx"; "1" ]; [ "y"; "22" ] ];
  Format.pp_print_flush ppf ();
  let lines = String.split_on_char '\n' (Buffer.contents buf) in
  (match lines with
  | header :: sep :: _ ->
      Alcotest.(check bool) "separator dashes" true (String.for_all (( = ) '-') sep);
      Alcotest.(check int) "widths match" (String.length header) (String.length sep)
  | _ -> Alcotest.fail "expected at least two lines")

let render_plot_runs () =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  Render.plot ppf ~height:5 ~x_min:0. ~x_max:10.
    ~series:[ ('*', "up", [| 1.; 2.; 3.; 4. |]); ('o', "down", [| 4.; 3.; 2.; 1. |]) ]
    ();
  Format.pp_print_flush ppf ();
  let out = Buffer.contents buf in
  Alcotest.(check bool) "legend" true (Astring_like.contains out "* = up");
  Alcotest.(check bool) "glyphs plotted" true
    (String.contains out '*' && String.contains out 'o')

(* ------------------------------------------------------------------ *)
(* Selfsim extension *)

let selfsim_poisson_udp_short_memory () =
  let cfg = tiny ~clients:10 ~duration:120. ~warmup:10. () in
  let row = Selfsim.measure cfg Selfsim.Poisson_src Scenario.udp in
  Alcotest.(check bool)
    (Printf.sprintf "H(wavelet)=%.2f near 0.5" row.Selfsim.hurst)
    true
    (row.Selfsim.hurst < 0.7);
  Alcotest.(check bool) "idc available" true (List.length row.Selfsim.idc > 0);
  List.iter
    (fun (m, v) ->
      Alcotest.(check bool)
        (Printf.sprintf "idc populated at m=%d" m)
        true (Option.is_some v))
    row.Selfsim.idc

let selfsim_pareto_raises_hurst () =
  let cfg = tiny ~clients:10 ~duration:120. ~warmup:10. () in
  let poisson = Selfsim.measure cfg Selfsim.Poisson_src Scenario.udp in
  let pareto = Selfsim.measure cfg Selfsim.Pareto_src Scenario.udp in
  Alcotest.(check bool)
    (Printf.sprintf "pareto H %.2f > poisson H %.2f" pareto.Selfsim.hurst
       poisson.Selfsim.hurst)
    true
    (pareto.Selfsim.hurst > poisson.Selfsim.hurst)

(* Pin the streaming Selfsim estimators against the old offline path:
   rebuild the same Poisson/UDP run with a stored-array binner next to
   the streaming aggregators and compare c.o.v. (same adds, same order
   — tight tolerance) and the IDC profile against the offline oracle,
   and check the wavelet Hurst estimate reads short memory. *)
let selfsim_streaming_matches_offline () =
  let module Time = Sim_engine.Time in
  let module Scheduler = Sim_engine.Scheduler in
  let cfg = tiny ~clients:10 ~duration:120. ~warmup:10. () in
  let net = Dumbbell.create cfg Scenario.udp in
  let sched = Dumbbell.scheduler net in
  let horizon = Time.of_sec cfg.Config.duration_s in
  let pool = Dumbbell.pool net and bottleneck = Dumbbell.bottleneck net in
  let binner =
    Netsim.Monitor.arrival_binner pool bottleneck ~origin:cfg.Config.warmup_s
      ~width:Selfsim.bin_width
  in
  let fine =
    Telemetry.Burst.create ~levels:Selfsim.fine_levels
      ~origin:cfg.Config.warmup_s ~width:Selfsim.bin_width ()
  in
  let rtt =
    Telemetry.Burst.create ~levels:1 ~origin:cfg.Config.warmup_s
      ~width:(Config.rtt_prop_s cfg) ()
  in
  Netsim.Monitor.arrival_burst pool bottleneck fine;
  Netsim.Monitor.arrival_burst pool bottleneck rtt;
  List.iter
    (fun i ->
      let rng =
        Sim_engine.Rng.split_named (Dumbbell.rng net)
          (Printf.sprintf "client-%d" i)
      in
      ignore
        (Traffic.Poisson.start sched ~rng
           ~mean_interarrival:cfg.Config.mean_interarrival_s ~start:Time.zero
           ~until:horizon ~sink:(Dumbbell.sink net i)))
    (List.init cfg.Config.clients Fun.id);
  Scheduler.run ~until:horizon sched;
  Telemetry.Burst.advance fine ~upto:cfg.Config.duration_s;
  Telemetry.Burst.advance rtt ~upto:cfg.Config.duration_s;
  let counts = Netstats.Binned.counts binner ~upto:cfg.Config.duration_s in
  (* The old offline c.o.v.: re-aggregate 10 ms bins to the RTT bin. *)
  let per_rtt = int_of_float (Config.rtt_prop_s cfg /. Selfsim.bin_width) in
  let rtt_counts =
    Array.init
      (Array.length counts / per_rtt)
      (fun i ->
        let s = ref 0. in
        for j = 0 to per_rtt - 1 do
          s := !s +. counts.((i * per_rtt) + j)
        done;
        !s)
  in
  let offline_cov = (Netstats.Summary.of_array rtt_counts).Netstats.Summary.cov in
  let streaming_cov = Option.get (Telemetry.Burst.cov rtt 0) in
  Alcotest.(check bool)
    (Printf.sprintf "cov streaming %.9f vs offline %.9f" streaming_cov
       offline_cov)
    true
    (abs_float (streaming_cov -. offline_cov) <= 1e-9);
  (* IDC per dyadic scale vs the offline profile on the stored array
     (pairwise vs sequential summation: float tolerance, not exact). *)
  List.iter
    (fun j ->
      let m = 1 lsl j in
      match (Oracle.idc counts m, Telemetry.Burst.idc fine j) with
      | offline, Some streaming ->
          Alcotest.(check bool)
            (Printf.sprintf "idc m=%d streaming %.6f vs offline %.6f" m
               streaming offline)
            true
            (abs_float (streaming -. offline) <= 1e-6 *. (1. +. abs_float offline))
      | _, None -> Alcotest.fail (Printf.sprintf "idc missing at m=%d" m))
    [ 0; 4; 7; 10 ];
  (* The wavelet Hurst estimate reads short memory on Poisson/UDP. *)
  let h_streaming = Option.get (Telemetry.Burst.hurst_wavelet fine) in
  Alcotest.(check bool)
    (Printf.sprintf "H wavelet %.2f near 0.5" h_streaming)
    true
    (abs_float (h_streaming -. 0.5) < 0.2)

(* ------------------------------------------------------------------ *)
(* Hybrid fluid/packet engine *)

(* The flow-scaling bench's mean-field shape: 16 pps/flow, 0.2 s
   propagation RTT, RED spanning [N, 7N]. *)
let mean_field_cfg n duration_s =
  let f = float_of_int n in
  {
    (Config.with_clients Config.default n) with
    Config.bottleneck_bandwidth_mbps = 0.192 *. f;
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

(* One draw of the coupled step's inputs: (n_bg, capacity pkt/s, base
   RTT ms, buffer), (max_window, q_pkt % of buffer, foreground rate % of
   capacity, drop probability per mil). [err steps] is the state error
   after two base RTTs from [w = 2, q_v = 0] at [steps] steps, against
   a 4096-step reference; [scale] is the reference state's size. *)
let coupling_errors ((n_bg, cap, rtt_ms, buf), (mw, qfrac, mufrac, pmil)) =
  let p =
    {
      Hybrid.Coupling.n_bg = float_of_int n_bg;
      capacity_pps = float_of_int cap;
      base_rtt_s = float_of_int rtt_ms /. 1000.;
      buffer_packets = float_of_int buf;
      max_window = float_of_int mw;
    }
  in
  let horizon = 2. *. p.Hybrid.Coupling.base_rtt_s in
  let final steps =
    let i =
      {
        Hybrid.Coupling.q_pkt = float_of_int buf *. float_of_int qfrac /. 100.;
        mu_fg_pps = float_of_int cap *. float_of_int mufrac /. 100.;
        p_drop = float_of_int pmil /. 1000.;
      }
    in
    let s = Fluidmodel.Ode.stepper 2 in
    let y = [| 2.; 0. |] in
    let dt = horizon /. float_of_int steps in
    for _ = 1 to steps do
      Hybrid.Coupling.step s p i ~dt y
    done;
    y
  in
  let reference = final 4096 in
  let err steps =
    let y = final steps in
    Float.max
      (Float.abs (y.(0) -. reference.(0)))
      (Float.abs (y.(1) -. reference.(1)))
  in
  (err, 1. +. Float.abs reference.(0) +. Float.abs reference.(1))

(* The field switches the backlog's growth off where the virtual queue
   empties or the buffer fills. RK4 is only first-order across such a
   switch, and while a step is coarse its error depends on where inside
   the step the switch falls, so it need not shrink as the step does:
   one draw errs 4.4e-2, 4.7e-2, 3.4e-2 and 1.1e-2 in q_v at 8, 16, 32
   and 64 steps. Convergence is therefore stated where the switch is
   resolved — quartering dt from RTT/32 to RTT/128 at least halves the
   error, up to a relative slack for the clamped corners — and the
   engine's own quantum (RTT/20, 40 steps here) is held to a bound. *)
let coupling_converges c =
  let err, scale = coupling_errors c in
  err 256 <= (0.5 *. err 64) +. (1e-3 *. scale)

let coupling_quantum_bounded c =
  let err, scale = coupling_errors c in
  err 40 <= 0.05 *. scale

let print_draw =
  QCheck2.Print.(pair (quad int int int int) (quad int int int int))

(* QCheck2's integrated shrinking keeps every shrunk draw inside the
   generator's ranges. *)
let coupling_test ~name prop =
  QCheck2.Test.make ~name ~count:100 ~print:print_draw
    QCheck2.Gen.(
      pair
        (quad (int_range 100 5_000) (int_range 2_000 50_000)
           (int_range 50 250) (int_range 500 20_000))
        (quad (int_range 12 64) (int_range 0 50) (int_range 0 50)
           (int_range 0 100)))
    prop

let hybrid_dt_halving_convergence =
  coupling_test ~name:"coupled step dt-halving convergence" coupling_converges

let hybrid_quantum_error_bounded =
  coupling_test ~name:"coupled step error at the engine quantum"
    coupling_quantum_bounded

let hybrid_coupling_pinned_draws () =
  (* Draws whose error does not shrink from RTT/4 to RTT/16 steps: both
     properties must hold on them. *)
  List.iter
    (fun c ->
      Alcotest.(check bool)
        ("converges " ^ print_draw c)
        true (coupling_converges c);
      Alcotest.(check bool)
        ("bounded " ^ print_draw c)
        true
        (coupling_quantum_bounded c))
    [
      ((1176, 26990, 166, 936), (48, 29, 7, 6));
      ((4294, 43392, 244, 17784), (29, 23, 3, 13));
      ((1806, 46949, 156, 1185), (37, 42, 25, 84));
    ]

let hybrid_attach_validates () =
  let cfg = tiny () in
  let net = Dumbbell.create cfg Scenario.reno_red in
  let sched = Dumbbell.scheduler net in
  let bottleneck = Dumbbell.bottleneck net in
  Alcotest.check_raises "background < 1"
    (Invalid_argument "Hybrid.attach: cfg.background < 1") (fun () ->
      ignore (Hybrid.attach ~sched ~bottleneck cfg));
  Dumbbell.finish net ignore

let hybrid_run_summary_presence () =
  (* background = 0 keeps the pure-packet path untouched (no summary,
     no coupling state); background >= 1 yields a converging summary. *)
  let cfg = tiny ~clients:4 ~duration:12. ~warmup:4. () in
  let pure = Run.run cfg Scenario.reno_red in
  Alcotest.(check bool) "no hybrid summary without background" true
    (pure.Metrics.hybrid = None);
  let m = Run.run { cfg with Config.background = 100 } Scenario.reno_red in
  match m.Metrics.hybrid with
  | None -> Alcotest.fail "hybrid summary missing with background = 100"
  | Some s ->
      Alcotest.(check int) "background recorded" 100 s.Metrics.background;
      Alcotest.(check bool) "quanta taken" true (s.Metrics.steps > 0);
      Alcotest.(check bool) "background window positive" true
        (s.Metrics.bg_window_mean > 0.);
      Alcotest.(check bool) "slowdown at least 1" true
        (s.Metrics.slowdown_mean >= 1.)

let hybrid_matches_packet_1e3 () =
  (* Short-horizon miniature of the bench validation gate: N = 10^3
     flows, all packet vs 50 packet + 950 fluid. The fluid Reno law has
     no timeouts or sub-RTT burstiness, so the bands are generous; the
     bench enforces the committed ones on longer horizons. *)
  let n = 1_000 and k_fg = 50 in
  let duration_s = 6.0 in
  let measure_from = 0.6 *. duration_s in
  let drive cfg k =
    let module Time = Sim_engine.Time in
    let net = Dumbbell.create cfg Scenario.reno_red in
    let sched = Dumbbell.scheduler net in
    let bottleneck = Dumbbell.bottleneck net in
    let hybrid =
      if cfg.Config.background >= 1 then
        Some (Hybrid.attach ~sched ~bottleneck cfg)
      else None
    in
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
      (Sim_engine.Scheduler.at sched (Time.of_sec measure_from) (fun () ->
           delivered_at_mark := Dumbbell.delivered_total net;
           arrivals_at_mark := Netsim.Link.arrivals bottleneck;
           drops_at_mark := Netsim.Link.drops bottleneck));
    Sim_engine.Scheduler.run ~until:(Time.of_sec duration_s) sched;
    let window = duration_s -. measure_from in
    let per_flow_pps =
      float_of_int (Dumbbell.delivered_total net - !delivered_at_mark)
      /. window /. float_of_int k
    in
    let arr = Netsim.Link.arrivals bottleneck - !arrivals_at_mark in
    let drops = Netsim.Link.drops bottleneck - !drops_at_mark in
    let loss_rate =
      if arr = 0 then 0. else float_of_int drops /. float_of_int arr
    in
    ignore hybrid;
    Dumbbell.finish net ignore;
    (per_flow_pps, loss_rate)
  in
  let base = mean_field_cfg n duration_s in
  let packet_pps, packet_loss = drive base n in
  let hybrid_pps, hybrid_loss =
    drive
      { (Config.with_clients base k_fg) with Config.background = n - k_fg }
      k_fg
  in
  let ratio = hybrid_pps /. packet_pps in
  Alcotest.(check bool)
    (Printf.sprintf "per-flow throughput ratio %.3f within [0.7, 1.45]" ratio)
    true
    (ratio >= 0.7 && ratio <= 1.45);
  Alcotest.(check bool)
    (Printf.sprintf "loss %.4f vs %.4f within 0.05" hybrid_loss packet_loss)
    true
    (Float.abs (hybrid_loss -. packet_loss) <= 0.05)

let suite =
  [
    ( "core.config",
      [
        Alcotest.test_case "derived quantities" `Quick config_derived_quantities;
        Alcotest.test_case "rejects zero clients" `Quick config_rejects_zero_clients;
        Alcotest.test_case "validate catches bad fields" `Quick
          config_validate_catches_bad_fields;
        Alcotest.test_case "rejects bad rto params" `Quick config_rejects_bad_rto;
        Alcotest.test_case "table rendering" `Quick config_pp_mentions_values;
      ] );
    ( "core.scenario",
      [
        Alcotest.test_case "labels" `Quick scenario_labels;
        Alcotest.test_case "series membership" `Quick scenario_series_membership;
        Alcotest.test_case "ecn labels" `Quick scenario_ecn_labels;
      ] );
    ( "core.analytic",
      [
        Alcotest.test_case "poisson cov closed form" `Quick analytic_poisson_cov;
        Alcotest.test_case "cov decreases with aggregation" `Quick
          analytic_cov_decreases_with_clients;
      ] );
    ( "core.fairness",
      [
        Alcotest.test_case "jain index" `Quick fairness_jain;
        Alcotest.test_case "max-min ratio" `Quick fairness_max_min;
      ] );
    ( "core.dumbbell",
      [
        Alcotest.test_case "tcp roundtrip" `Quick dumbbell_tcp_roundtrip;
        Alcotest.test_case "udp roundtrip" `Quick dumbbell_udp_roundtrip;
        Alcotest.test_case "delivery latency" `Quick dumbbell_delivery_latency;
        Alcotest.test_case "endpoint sinks" `Quick dumbbell_endpoint_sinks;
      ] );
    ( "core.run",
      [
        Alcotest.test_case "every scenario smoke" `Quick run_every_scenario_smoke;
        Alcotest.test_case "conservation" `Quick run_conservation;
        Alcotest.test_case "uncongested delivers everything" `Quick
          run_uncongested_delivers_everything;
        Alcotest.test_case "udp cov tracks poisson" `Slow run_udp_cov_tracks_poisson;
        Alcotest.test_case "overload saturates throughput" `Slow
          run_overload_saturates_throughput;
        Alcotest.test_case "cwnd traces" `Quick run_traces_requested_clients;
        Alcotest.test_case "out-of-range trace_clients rejected" `Quick
          run_rejects_out_of_range_trace_clients;
        Alcotest.test_case "cov confidence interval" `Slow run_cov_ci_present;
        Alcotest.test_case "deterministic" `Quick run_deterministic;
        Alcotest.test_case "pinned trace digest" `Quick run_trace_digest_pinned;
        Alcotest.test_case "pinned trace digest (delack+red, flow table)" `Quick
          run_trace_digest_pinned_flow_table;
        Alcotest.test_case "pinned trace digest (sharded, K-invariant)" `Quick
          run_trace_digest_pinned_sharded;
        Alcotest.test_case "pinned metrics digest (both engines)" `Quick
          run_metrics_digest_pinned;
        Alcotest.test_case "recorder parity with live tracer" `Quick
          run_recorder_parity_with_live_tracer;
        Alcotest.test_case "pool drained after runs" `Quick run_releases_every_pooled_packet;
        Alcotest.test_case "seed sensitivity" `Quick run_seed_sensitivity;
        Alcotest.test_case "ecn end to end" `Slow run_ecn_end_to_end;
        Alcotest.test_case "ared end to end" `Slow run_ared_end_to_end;
        Alcotest.test_case "sack end to end" `Slow run_sack_end_to_end;
        Alcotest.test_case "m/d/1 queue validation" `Slow run_md1_queue_validation;
        Alcotest.test_case "sfq end to end" `Slow run_sfq_end_to_end;
        Alcotest.test_case "pinned lifecycle recording" `Quick
          run_lifecycle_recording_pinned;
      ] );
    ( "core.hybrid",
      [
        Alcotest.test_case "attach validation" `Quick hybrid_attach_validates;
        Alcotest.test_case "summary presence and shape" `Quick
          hybrid_run_summary_presence;
        Alcotest.test_case "matches packet at N=1e3 (short horizon)" `Slow
          hybrid_matches_packet_1e3;
        QCheck_alcotest.to_alcotest hybrid_dt_halving_convergence;
        QCheck_alcotest.to_alcotest hybrid_quantum_error_bounded;
        Alcotest.test_case "coupled step on pinned draws" `Quick
          hybrid_coupling_pinned_draws;
      ] );
    ( "core.paper_shapes",
      [
        Alcotest.test_case "reno burstier than udp" `Slow paper_shape_reno_burstier_than_udp;
        Alcotest.test_case "vegas smoother than reno" `Slow paper_shape_vegas_smoother_than_reno;
        Alcotest.test_case "reno timeout ratio higher" `Slow paper_shape_timeout_ratio;
        Alcotest.test_case "reno loss bursts longer" `Slow paper_shape_reno_loss_bursts;
      ] );
    ( "core.sync",
      [
        Alcotest.test_case "udp near zero" `Slow sync_udp_near_zero;
        Alcotest.test_case "reno heavy load positive" `Slow sync_reno_heavy_load_positive;
        Alcotest.test_case "off by default" `Quick sync_not_measured_by_default;
        Alcotest.test_case "stagger and spread accepted" `Quick
          sync_stagger_and_spread_accepted;
      ] );
    ( "core.json",
      [
        Alcotest.test_case "roundtrip" `Quick json_basic_roundtrip;
        Alcotest.test_case "parse errors" `Quick json_parse_errors;
        Alcotest.test_case "member access" `Quick json_member_access;
        QCheck_alcotest.to_alcotest json_roundtrip_property;
      ] );
    ( "core.export",
      [
        Alcotest.test_case "csv shape" `Quick export_csv_shape;
        Alcotest.test_case "json valid and complete" `Quick export_json_valid_and_complete;
        Alcotest.test_case "delay metrics sane" `Slow run_delay_metrics_sane;
      ] );
    ( "core.twoway",
      [
        Alcotest.test_case "one-way baseline" `Quick twoway_oneway_baseline;
        Alcotest.test_case "ack compression hurts reno" `Slow
          twoway_ack_compression_hurts_reno;
        Alcotest.test_case "validation" `Quick twoway_validates;
        Alcotest.test_case "past 100 flows" `Quick
          twoway_and_parking_past_100_flows;
        Alcotest.test_case "leak checks" `Quick twoway_and_parking_leak_checks;
      ] );
    ( "core.parking_lot",
      [
        Alcotest.test_case "lone flow fills the pipe" `Slow parking_lone_flow_fills_pipe;
        Alcotest.test_case "long flow disadvantaged" `Slow parking_long_flow_disadvantaged;
        Alcotest.test_case "capacity respected" `Slow parking_capacity_respected;
        Alcotest.test_case "validation" `Quick parking_validates;
      ] );
    ( "core.sweep",
      [
        Alcotest.test_case "distinct seeds" `Quick sweep_distinct_seeds;
        Alcotest.test_case "over clients" `Quick sweep_over_clients_shapes;
      ] );
    ( "core.figures",
      [
        Alcotest.test_case "sweep and render all figures" `Slow figures_sweep_and_render;
        Alcotest.test_case "table alignment" `Quick render_table_alignment;
        Alcotest.test_case "plot rendering" `Quick render_plot_runs;
      ] );
    ( "core.selfsim",
      [
        Alcotest.test_case "poisson/udp short memory" `Slow selfsim_poisson_udp_short_memory;
        Alcotest.test_case "pareto raises hurst" `Slow selfsim_pareto_raises_hurst;
        Alcotest.test_case "streaming matches offline path" `Slow
          selfsim_streaming_matches_offline;
      ] );
  ]
