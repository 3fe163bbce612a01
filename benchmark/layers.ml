(* The traced rep's per-layer cost model.

   Counts come from public accessors after each run: the probe's
   registry and phase timers on both engines, plus Dumbbell, Scheduler
   and Packet_pool accessors through [?prepare] on the classic engine.
   Costs come from a layer replay: each layer's public functions called
   in a loop, held at the occupancy the workload reached, timed as
   ns/op. A layer's [busy_s_est] is count x ns/op; the share of the
   measured drain time those estimates leave unexplained is
   [model.residual_frac], the cache and heap-depth effect a replay at
   steady occupancy cannot see. *)

module C = Burstcore.Config
module Sc = Burstcore.Scenario
module M = Burstcore.Metrics
module Time = Sim_engine.Time
module Scheduler = Sim_engine.Scheduler
module Eq = Sim_engine.Event_queue
module Pool = Netsim.Packet_pool
module Probe = Telemetry.Probe
module Reg = Telemetry.Registry
module J = Burstcore.Json

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Spans: recorded around the benchmark's own calls into each layer,
   kept in memory, written once at the end.                            *)

type span = {
  id : int;
  parent : int;
  name : string;
  t0 : float;
  t1 : float;
  args : (string * int) list;
}

let spans : span list ref = ref []
let next_id = ref 0
let origin = now ()

let fresh_id () =
  incr next_id;
  !next_id

let add_span ?(id = fresh_id ()) ?(parent = -1) ?(args = []) name t0 t1 =
  spans := { id; parent; name; t0; t1; args } :: !spans;
  id

let span name f =
  let t0 = now () in
  let r = f () in
  ignore (add_span name t0 (now ()));
  r

(* Chrome trace-event format, which chrome://tracing and Perfetto load.
   Each workload's spans go under its own [pid], named [process], so the
   lists of several workloads concatenate into one file. *)
let spans_json ~pid ~process =
  let event s =
    J.Obj
      [
        ("name", J.String s.name);
        ("ph", J.String "X");
        ("ts", J.Float ((s.t0 -. origin) *. 1e6));
        ("dur", J.Float ((s.t1 -. s.t0) *. 1e6));
        ("pid", J.Int pid);
        ("tid", J.Int 1);
        ( "args",
          J.Obj
            ([ ("id", J.Int s.id); ("parent", J.Int s.parent) ]
            @ List.map (fun (k, v) -> (k, J.Int v)) s.args) );
      ]
  in
  let name =
    J.Obj
      [
        ("name", J.String "process_name");
        ("ph", J.String "M");
        ("pid", J.Int pid);
        ("args", J.Obj [ ("name", J.String process) ]);
      ]
  in
  J.Obj [ ("traceEvents", J.List (name :: List.rev_map event !spans)) ]

(* ------------------------------------------------------------------ *)
(* Counts from one traced rep                                          *)

(* One run of the traced rep, with its probe. *)
type traced = { o : Workload.outcome; m : M.t; p : Probe.t }

let counter p name = Reg.counter_value (Reg.counter p.Probe.registry name)
let gauge p name = Reg.gauge_value (Reg.gauge p.Probe.registry name)

(* Mean gateway depth by Little's law: the post-warmup departure rate
   times the queueing part of the mean one-way delay (the delay less
   both propagation legs and both serializations). *)
let mean_depth r =
  let cfg = r.o.run.cfg in
  let bits = float_of_int (cfg.C.packet_bytes * 8) in
  let fixed =
    cfg.C.client_delay_s +. cfg.C.bottleneck_delay_s
    +. (bits /. (cfg.C.client_bandwidth_mbps *. 1e6))
    +. (bits /. (cfg.C.bottleneck_bandwidth_mbps *. 1e6))
  in
  let rate =
    float_of_int r.o.departures /. Workload.departure_window_s cfg
  in
  Float.min
    (float_of_int cfg.C.buffer_packets)
    (Float.max 1. (rate *. Float.max 0. (r.m.M.delay_mean_s -. fixed)))

(* ACKs a TCP run's senders handled: every data segment that survives the
   gateway draws one. *)
let acks r = r.m.M.segments_sent - r.m.M.gateway_drops

(* ------------------------------------------------------------------ *)
(* Layer replay                                                        *)

(* Run [op] in batches until [budget] seconds have passed; ns per op. *)
let per_op ~budget ?(batch = 1024) op =
  let t0 = now () in
  let ops = ref 0 in
  while !ops = 0 || now () -. t0 < budget do
    for _ = 1 to batch do
      op ()
    done;
    ops := !ops + batch
  done;
  (now () -. t0) *. 1e9 /. float_of_int !ops

(* The event queue at [live] pending events, a share [parked] of them
   far enough out for the timer wheel: one op is pop_if_before + fire,
   whose keyed action schedules the replacement event. *)
let engine_ns ~budget ~live ~parked =
  let live = max 1 live in
  let q = Eq.create ~capacity:(live + 64) () in
  let rng = Random.State.make [| 17 |] in
  let clock = ref 0 in
  let delay () =
    if Random.State.float rng 1. < parked then
      2_000_000 + Random.State.int rng 400_000_000
    else 1_000 + Random.State.int rng 900_000
  in
  let rec action key =
    ignore (Eq.schedule_keyed q (Time.of_ns (!clock + delay ())) action key)
  in
  for i = 1 to live do
    ignore (Eq.schedule_keyed q (Time.of_ns (delay ())) action i)
  done;
  per_op ~budget (fun () ->
      let h = Eq.pop_if_before q Time.never in
      clock := Time.to_ns (Eq.time_of q h);
      Eq.fire q h)

let data pool ~seq ~size =
  Pool.alloc_data pool ~flow:(seq land 1023) ~src:0 ~dst:1 ~size_bytes:size
    ~sent_at:Time.zero ~seq ~is_retransmit:false ()

(* The packet pool at [live] packets: free the oldest, allocate anew. *)
let pool_ns ~budget ~live =
  let live = max 1 live in
  let pool = Pool.create ~capacity:(live + 64) () in
  let ring = Array.init live (fun seq -> data pool ~seq ~size:1500) in
  let i = ref 0 in
  per_op ~budget (fun () ->
      let k = !i mod live in
      Pool.free pool ring.(k);
      ring.(k) <- data pool ~seq:!i ~size:1500;
      incr i)

(* The scenario's gateway discipline held at [depth]: one op is an
   arrival (freed if dropped) plus a departure once above the depth. *)
let qdisc_ns ~budget cfg scenario ~depth =
  let depth = max 1 (int_of_float depth) in
  let pool = Pool.create ~capacity:(cfg.C.buffer_packets + 64) () in
  let q =
    Burstcore.Dumbbell.gateway_queue cfg scenario
      (Sim_engine.Rng.create ~seed:17L) pool
  in
  let t = ref 0 in
  let arrive () =
    incr t;
    let h = data pool ~seq:!t ~size:cfg.C.packet_bytes in
    match Netsim.Queue_disc.enqueue q ~now:(Time.of_ns !t) h with
    | `Enqueued -> ()
    | `Dropped -> Pool.free pool h
    | `Enqueued_dropping v -> Pool.free pool v
  in
  for _ = 1 to depth do
    arrive ()
  done;
  per_op ~budget (fun () ->
      arrive ();
      if Netsim.Queue_disc.length q > depth then
        Pool.free pool (Netsim.Queue_disc.dequeue q ~now:(Time.of_ns !t)))

(* A sender group of [cfg.clients] flows with unbounded backlog, fed one
   in-order ACK per op round-robin; each ACK releases new segments,
   which the transmit hook frees. The clock advances 1 ms per round so
   RTT samples stay positive. Returns ns/ACK and the group's table. *)
let ack_ns ~budget cfg cc =
  let n = cfg.C.clients in
  let sched = Scheduler.create () in
  let pool = Pool.create ~capacity:((n * ((2 * cfg.C.adv_window) + 4)) + 64) () in
  let variant, vegas = Burstcore.Dumbbell.make_cc cfg cc in
  let group =
    Transport.Tcp_sender.create_group ?vegas ~capacity:n sched ~pool ~cc:variant
      ~rto_params:cfg.C.rto ~mss_bytes:cfg.C.packet_bytes
      ~adv_window:cfg.C.adv_window
      ~transmit:(fun ~flow:_ h -> Pool.free pool h)
  in
  let senders =
    Array.init n (fun i ->
        Transport.Tcp_sender.attach group ~flow:i ~src:i ~dst:n ())
  in
  Array.iter (fun s -> Transport.Tcp_sender.write s 1_000_000_000) senders;
  let i = ref 0 in
  let ns =
    per_op ~budget (fun () ->
        let k = !i mod n in
        if k = 0 then
          Scheduler.run
            ~until:(Time.add (Scheduler.now sched) (Time.of_ms 1.))
            sched;
        let s = senders.(k) in
        let h =
          Pool.alloc_ack pool ~flow:k ~src:n ~dst:k ~size_bytes:cfg.C.ack_bytes
            ~sent_at:(Scheduler.now sched)
            ~ack:(Transport.Tcp_sender.snd_una s + 1)
            ~ece:false ~sack:[] ()
        in
        Transport.Tcp_sender.handle_packet s h;
        Pool.free pool h;
        incr i)
  in
  (ns, Transport.Tcp_sender.table group)

(* Random read-modify-write of one cell across [rows] rows of a table
   shaped like [like]. *)
let flow_row_ns ~budget ~rows ~like =
  let module Ft = Netsim.Flow_table in
  let rows = max 1 rows in
  let t =
    Ft.create ~capacity:rows ~ints_per_flow:(Ft.ints_per_flow like)
      ~floats_per_flow:(Ft.floats_per_flow like) ()
  in
  let hs = Array.init rows (fun _ -> Ft.alloc t) in
  let rng = Random.State.make [| 17 |] in
  per_op ~budget (fun () ->
      let h = hs.(Random.State.int rng rows) in
      Ft.set_int t h 0 (Ft.get_int t h 0 + 1))

let record_ns ~budget =
  let r =
    Telemetry.Recorder.create
      { Telemetry.Recorder.default_config with overflow = Drop_oldest }
  in
  let lane = Telemetry.Recorder.lane r 0 in
  let i = ref 0 in
  per_op ~budget (fun () ->
      incr i;
      Telemetry.Recorder.record lane ~tick:!i
        ~kind:Telemetry.Record.packet_depart ~flow:(!i land 63) ~a:!i ~b:1500
        ~c:0 ~sid:0 ~depth:0)

let publish_ns ~budget =
  let bus = Telemetry.Event_bus.create () in
  ignore
    (Telemetry.Event_bus.subscribe bus
       (Telemetry.Event_bus.ndjson_writer (Lazy.force Workload.ndjson_sink)));
  let ev =
    Telemetry.Event_bus.Packet
      {
        time = 31.25;
        kind = Depart;
        link = "bottleneck";
        flow = 7;
        seq = Some 4242;
        size_bytes = 1500;
        uid = 123456;
      }
  in
  per_op ~budget (fun () -> Telemetry.Event_bus.publish bus ev)

(* Arrivals spaced to the workload's mean count per RTT bin. *)
let burst_ns ~budget ~width ~per_bin =
  let b = Telemetry.Burst.create ~origin:0. ~width () in
  let step = max 1 (int_of_float (width *. 1e9 /. Float.max 1. per_bin)) in
  let tick = ref 0 in
  per_op ~budget (fun () ->
      tick := !tick + step;
      Telemetry.Burst.observe_tick b !tick)

(* One op is one rendezvous of a 2-domain team. *)
let barrier_ns ~budget =
  let module Team = Parallel.Pool.Team in
  Team.with_team ~domains:2 (fun team ->
      let stop = Atomic.make false in
      let rounds = ref 0 in
      let t0 = now () in
      Team.run team (fun rank ->
          while not (Atomic.get stop) do
            Team.barrier team;
            if rank = 0 then begin
              incr rounds;
              if now () -. t0 >= budget then Atomic.set stop true
            end;
            Team.barrier team
          done);
      (now () -. t0) *. 1e9 /. float_of_int (2 * max 1 !rounds))

(* One projected RK4 step of the hybrid coupling's background ODE. *)
let hybrid_step_ns ~budget cfg =
  let module H = Burstcore.Hybrid.Coupling in
  let params =
    {
      H.n_bg = float_of_int cfg.C.background;
      capacity_pps = Burstcore.Hybrid.capacity_pps cfg;
      base_rtt_s = C.rtt_prop_s cfg;
      buffer_packets = float_of_int cfg.C.buffer_packets;
      max_window = float_of_int cfg.C.adv_window;
    }
  in
  let inputs = { H.q_pkt = 10.; mu_fg_pps = 2500.; p_drop = 0.04 } in
  let stepper = Fluidmodel.Ode.stepper 2 in
  let y = [| 1.; 0. |] in
  let dt = Burstcore.Hybrid.default_quantum_s cfg in
  per_op ~budget ~batch:256 (fun () -> H.step stepper params inputs ~dt y)

(* ------------------------------------------------------------------ *)
(* The traced rep                                                      *)

(* Group traced runs by [key], dropping runs it maps to [None]; each
   group's replay config is that of its largest population. *)
let groups key runs =
  List.fold_left
    (fun acc r ->
      match key r with
      | None -> acc
      | Some k -> (
          match List.assoc_opt k acc with
          | Some rs -> (k, r :: rs) :: List.remove_assoc k acc
          | None -> (k, [ r ]) :: acc))
    [] runs

let largest rs =
  List.fold_left
    (fun a r -> if r.o.run.cfg.C.clients > a.o.run.cfg.C.clients then r else a)
    (List.hd rs) rs

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

let with_shards k runs =
  List.map
    (fun (r : Workload.run) -> { r with cfg = { r.cfg with C.shards = k } })
    runs

let timed_rep ?traced ?plain ?prepare w runs =
  Gc.compact ();
  let t0 = now () in
  let os = List.map (Workload.execute ?traced ?plain ?prepare w) runs in
  (now () -. t0, os)

let trace (w : Workload.t) ~seed ~smoke =
  let budget = if smoke then 0.005 else 0.25 in
  let runs = Workload.runs w ~seed ~smoke in
  let t = Workload.tally () in
  let tally ?check os = Workload.count ?check ~smoke w t os in
  let expect_same what a b =
    if not (String.equal a b) then
      Workload.fail t (Printf.sprintf "%s: digest %s <> %s" what a b)
  in
  (* A set-up pass first, so the untraced rep does not also pay the
     process's first heap growth. *)
  ignore (timed_rep w (List.map Workload.truncate runs));
  let untraced_wall, untraced =
    span "rep.untraced" (fun () -> timed_rep w runs)
  in
  tally untraced;
  let digest = Workload.digest untraced in
  (* The traced rep: a probe on every run, classic topologies captured
     through [?prepare] into [nets], and the probe's phases as child
     spans of each run's span. *)
  let nets = ref [] in
  let capture (r : Workload.run) =
    if r.cfg.C.shards = 0 then Some (fun n -> nets := n :: !nets) else None
  in
  Gc.compact ();
  let rep_id = fresh_id () in
  let t_rep = now () in
  let traced_os =
    List.map
      (fun (r : Workload.run) ->
        let t_run = now () in
        let o = Workload.execute ~traced:true ?prepare:(capture r) w r in
        let t_end = now () in
        Option.iter
          (fun p ->
            let run_id =
              add_span ~parent:rep_id
                ~args:[ ("events", counter p Probe.m_events) ]
                ("run " ^ Workload.label r) t_run t_end
            in
            ignore
              (List.fold_left
                 (fun t (phase, name) ->
                   let d = Telemetry.Perf.duration_s p.Probe.phases phase in
                   ignore (add_span ~parent:run_id name t (t +. d));
                   t +. d)
                 t_run
                 [ ("setup", "setup"); ("run", "drain"); ("collect", "collect") ]))
          o.probe;
        o)
      runs
  in
  let traced_wall = now () -. t_rep in
  ignore (add_span ~id:rep_id "rep.traced" t_rep (now ()));
  tally traced_os;
  expect_same "traced vs untraced" digest (Workload.digest traced_os);
  let traced =
    List.filter_map
      (fun (o : Workload.outcome) ->
        match (o.probe, o.metrics) with
        | Some p, Some m -> Some { o; m; p }
        | _ -> None)
      traced_os
  in
  (* Workload-specific companions. *)
  let overhead_frac =
    match w.kind with
    | Paper_observed ->
        let plain_wall, plain =
          span "rep.unobserved" (fun () -> timed_rep ~plain:true w runs)
        in
        tally ~check:false plain;
        expect_same "unobserved vs observed" digest (Workload.digest plain);
        untraced_wall /. plain_wall -. 1.
    | _ -> 0.
  in
  let classic =
    match w.kind with
    | Meanfield_sharded ->
        let _, k1 =
          span "rep.shards-1" (fun () -> timed_rep w (with_shards 1 runs))
        in
        tally k1;
        expect_same "shards=1 vs shards=2" digest (Workload.digest k1);
        (* The classic engine on the same model: the base of events_ratio
           and speedup, and the topology accessors the sharded engine
           does not expose. *)
        let wall, os =
          span "rep.classic" (fun () ->
              let classic = with_shards 0 runs in
              timed_rep ~traced:true
                ~prepare:(fun n -> nets := n :: !nets)
                w classic)
        in
        tally os;
        let events =
          List.fold_left
            (fun a (o : Workload.outcome) ->
              match o.probe with
              | Some p -> a + counter p Probe.m_events
              | None -> a)
            0 os
        in
        Some (wall, fi events)
    | _ -> None
  in
  (* Counts: sums and peaks over the traced runs and captured topologies. *)
  let sum f = List.fold_left (fun a r -> a +. f r) 0. traced in
  let peak f = List.fold_left (fun a r -> Float.max a (f r)) 0. traced in
  let count name r = fi (counter r.p name) in
  let phase name r = Telemetry.Perf.duration_s r.p.Probe.phases name in
  let tcp f r = if Sc.is_tcp r.o.run.scenario then fi (f r.m) else 0. in
  let net_sum f = List.fold_left (fun a n -> a +. fi (f n)) 0. !nets in
  let net_peak f = List.fold_left (fun a n -> Float.max a (fi (f n))) 0. !nets in
  let sched f n = f (Burstcore.Dumbbell.scheduler n) in
  let pool f n = f (Burstcore.Dumbbell.pool n) in
  let events = sum (count Probe.m_events) in
  let arrivals = sum (count Probe.m_arrivals) in
  let segments = sum (tcp (fun m -> m.M.segments_sent)) in
  let pool_allocs = net_sum (pool Pool.allocated) in
  let parked_frac =
    ratio
      (net_sum (sched Scheduler.queue_wheel_parked))
      (net_sum (sched Scheduler.events_processed))
  in
  let windows =
    sum (fun r ->
        let cfg = r.o.run.cfg in
        if cfg.C.shards >= 1 then cfg.C.duration_s /. Burstcore.Pdes.window_s cfg
        else 0.)
  in
  let hybrid_steps =
    sum (fun r -> match r.m.M.hybrid with Some h -> fi h.M.steps | None -> 0.)
  in
  let setup_s = sum (phase "setup") and drain_s = sum (phase "run") in
  let collect_s = sum (phase "collect") in
  let observed = List.filter_map (fun r -> r.o.observed) traced in
  let obs f = fi (List.fold_left (fun a ob -> a + f ob) 0 observed) in
  (* Layer replay at the measured occupancy. *)
  let replay name f = span ("replay." ^ name) f in
  let engine_ns =
    replay "engine" (fun () ->
        engine_ns ~budget
          ~live:(int_of_float (peak (fun r -> gauge r.p Probe.m_eq_hwm)))
          ~parked:(Float.min 1. parked_frac))
  in
  let pool_ns =
    replay "pool" (fun () ->
        pool_ns ~budget ~live:(int_of_float (net_peak (pool Pool.high_water_mark))))
  in
  (* Each gateway discipline at its arrival-weighted mean depth. *)
  let qdisc_busy =
    List.fold_left
      (fun busy (_, rs) ->
        let a r = fi r.m.M.gateway_arrivals in
        let total = List.fold_left (fun x r -> x +. a r) 0. rs in
        let depth =
          ratio (List.fold_left (fun d r -> d +. (mean_depth r *. a r)) 0. rs) total
        in
        let big = largest rs in
        let ns =
          replay "qdisc" (fun () ->
              qdisc_ns ~budget big.o.run.cfg big.o.run.scenario ~depth)
        in
        busy +. (total *. ns *. 1e-9))
      0.
      (groups (fun r -> Some r.o.run.scenario.Sc.gateway) traced)
  in
  (* Each Cc variant's ACK path at its largest group size. *)
  let ack_busy, acks_total, table =
    List.fold_left
      (fun (busy, n, _) (cc, rs) ->
        let a = fi (List.fold_left (fun x r -> x + acks r) 0 rs) in
        let big = (largest rs).o.run.cfg in
        let ns, t = replay "ack" (fun () -> ack_ns ~budget big cc) in
        (busy +. (a *. ns *. 1e-9), n +. a, Some (t, big.C.clients)))
      (0., 0., None)
      (groups
         (fun r ->
           match r.o.run.scenario.Sc.transport with
           | Sc.Tcp { cc; _ } -> Some cc
           | Sc.Udp -> None)
         traced)
  in
  let flow_row_ns =
    match table with
    | Some (like, rows) ->
        replay "flow_row" (fun () -> flow_row_ns ~budget ~rows ~like)
    | None -> 0.
  in
  let if_observed name f =
    if w.kind = Paper_observed then replay name f else 0.
  in
  let record_ns = if_observed "record" (fun () -> record_ns ~budget) in
  let publish_ns = if_observed "publish" (fun () -> publish_ns ~budget) in
  let burst_ns =
    if_observed "burst" (fun () ->
        let width = C.rtt_prop_s (List.hd runs).Workload.cfg in
        burst_ns ~budget ~width ~per_bin:(peak (fun r -> r.m.M.mean_per_bin)))
  in
  let barrier_ns =
    if classic = None then 0.
    else replay "barrier" (fun () -> barrier_ns ~budget)
  in
  let hybrid_cfg =
    List.find_opt (fun (r : Workload.run) -> r.cfg.C.background >= 1) runs
  in
  let step_ns =
    match hybrid_cfg with
    | Some r -> replay "hybrid_step" (fun () -> hybrid_step_ns ~budget r.cfg)
    | None -> 0.
  in
  (* Estimates and the residual. *)
  let engine_busy = events *. engine_ns *. 1e-9 in
  let net_busy = (pool_allocs *. pool_ns *. 1e-9) +. qdisc_busy in
  let pdes_busy = windows *. 2. *. barrier_ns *. 1e-9 in
  let hybrid_busy = hybrid_steps *. step_ns *. 1e-9 in
  let busy = engine_busy +. net_busy +. ack_busy +. pdes_busy +. hybrid_busy in
  let events_ratio, speedup =
    match classic with
    | Some (wall, classic_events) ->
        (ratio events classic_events, ratio wall untraced_wall)
    | None -> (0., 0.)
  in
  let run_s = setup_s +. drain_s +. collect_s in
  let metrics =
    [
      ("engine.events", "count", events);
      ("engine.events_per_s", "1/s", ratio events drain_s);
      ("engine.queue_hwm", "count", peak (fun r -> gauge r.p Probe.m_eq_hwm));
      ("engine.wheel_parked_frac", "ratio", parked_frac);
      ("engine.queue_growths", "count", net_sum (sched Scheduler.queue_growths));
      ("engine.ns_per_event", "ns", engine_ns);
      ("engine.busy_s_est", "s", engine_busy);
      ("net.pool_allocs", "count", pool_allocs);
      ("net.pool_hwm", "count", net_peak (pool Pool.high_water_mark));
      ("net.gw_arrivals", "count", arrivals);
      ("net.gw_drop_frac", "ratio", ratio (sum (count Probe.m_drops)) arrivals);
      ("net.gw_queue_hwm", "count", peak (fun r -> gauge r.p Probe.m_gw_hwm));
      ( "net.bytes_per_flow",
        "B",
        net_peak Burstcore.Dumbbell.flow_table_bytes_per_flow );
      ("net.pool_ns_per_op", "ns", pool_ns);
      ("net.qdisc_ns_per_op", "ns", ratio (qdisc_busy *. 1e9) arrivals);
      ("net.flow_row_ns_per_op", "ns", flow_row_ns);
      ("net.busy_s_est", "s", net_busy);
      ("transport.segments_sent", "count", segments);
      ( "transport.retransmit_frac",
        "ratio",
        ratio (sum (tcp (fun m -> m.M.retransmits))) segments );
      ("transport.timeouts", "count", sum (tcp (fun m -> m.M.timeouts)));
      ("transport.dup_acks", "count", sum (tcp (fun m -> m.M.dup_acks)));
      ("transport.ack_ns_per_op", "ns", ratio (ack_busy *. 1e9) acks_total);
      ("transport.busy_s_est", "s", ack_busy);
      ("traffic.offered", "count", sum (fun r -> fi r.m.M.offered));
      ("telemetry.records", "count", obs (fun o -> o.Workload.records));
      ("telemetry.record_bytes", "B", obs (fun o -> o.Workload.record_bytes));
      ("telemetry.trace_bytes", "B", obs (fun o -> o.Workload.trace_bytes));
      ("telemetry.record_ns_per_op", "ns", record_ns);
      ("telemetry.publish_ns_per_op", "ns", publish_ns);
      ("telemetry.burst_ns_per_op", "ns", burst_ns);
      ("telemetry.overhead_frac", "ratio", overhead_frac);
      ("pdes.windows", "count", windows);
      ("pdes.barrier_ns_per_op", "ns", barrier_ns);
      ("pdes.busy_s_est", "s", pdes_busy);
      ("pdes.events_ratio", "ratio", events_ratio);
      ("pdes.speedup", "ratio", speedup);
      ("hybrid.steps", "count", hybrid_steps);
      ("hybrid.step_ns_per_op", "ns", step_ns);
      ("hybrid.busy_s_est", "s", hybrid_busy);
      ( "hybrid.setup_frac",
        "ratio",
        if hybrid_cfg = None then 0. else ratio setup_s run_s );
      ("collect.s", "s", collect_s);
      ( "gc.minor_words_per_event",
        "words",
        ratio (sum (fun r -> gauge r.p Probe.m_minor_words)) events );
      ( "gc.promoted_words_per_event",
        "words",
        ratio (sum (fun r -> gauge r.p Probe.m_promoted_words)) events );
      ("gc.major_collections", "count", sum (count Probe.m_major_collections));
      ("model.residual_frac", "ratio", 1. -. ratio busy drain_s);
      ("model.trace_overhead_frac", "ratio", (traced_wall /. untraced_wall) -. 1.);
      ("run.s", "s", run_s);
      ("run.setup_s", "s", setup_s);
      ("run.drain_s", "s", drain_s);
    ]
  in
  (metrics, t, digest)
