module Time = Sim_engine.Time
module Scheduler = Sim_engine.Scheduler
module Rng = Sim_engine.Rng
module Link = Netsim.Link
module Node = Netsim.Node
module Router = Netsim.Router
module Units = Netsim.Units
module Queue_disc = Netsim.Queue_disc
module Packet_pool = Netsim.Packet_pool

type endpoint =
  | Tcp_end of Transport.Tcp_sender.t * Transport.Tcp_receiver.t
  | Udp_end of Transport.Udp.sender * Transport.Udp.receiver

type t = {
  sched : Scheduler.t;
  rng : Rng.t;
  pool : Packet_pool.t;
  bottleneck : Link.t;
  reverse_bottleneck : Link.t;
  up_links : Link.t array;
  down_links : Link.t array;
  endpoints : endpoint array;
  (* The flow-table groups behind the TCP endpoints ([None] for UDP):
     all N senders share one struct-of-arrays slab, all N receivers
     another — see {!Transport.Tcp_sender.create_group}. *)
  flows : (Transport.Tcp_sender.group * Transport.Tcp_receiver.group) option;
}

let lossless_capacity = 1_000_000
(* Only the gateway buffer is finite in the paper's model; access and
   reverse links never drop. *)

let server_id = 0

let client_id i = i + 1

(* The {!Transport.Cc.variant} tag plus its parameters, if any; window
   bounds default to the advertised window inside [create_group]. *)
let make_cc cfg kind =
  match kind with
  | Scenario.Tahoe -> (Transport.Cc.Tahoe, None)
  | Scenario.Reno -> (Transport.Cc.Reno, None)
  | Scenario.Newreno -> (Transport.Cc.Newreno, None)
  | Scenario.Vegas -> (Transport.Cc.Vegas, Some cfg.Config.vegas)
  | Scenario.Sack -> (Transport.Cc.Sack, None)

let red_params cfg ~ecn_mark ~adaptive =
  {
    Netsim.Red.min_th = cfg.Config.red_min_th;
    max_th = cfg.Config.red_max_th;
    max_p = cfg.Config.red_max_p;
    w_q = cfg.Config.red_w_q;
    capacity = cfg.Config.buffer_packets;
    idle_packet_time =
      float_of_int (8 * cfg.Config.packet_bytes)
      /. (cfg.Config.bottleneck_bandwidth_mbps *. 1e6);
    ecn_mark;
    adaptive;
  }

let gateway_queue ?recorder cfg scenario rng pool =
  let red ~ecn_mark ~adaptive =
    Queue_disc.red
      ~rng:(Rng.split_named rng "red-gateway")
      ~pool
      (red_params cfg ~ecn_mark ~adaptive)
  in
  let q =
    match scenario.Scenario.gateway with
    | Scenario.Fifo -> Queue_disc.droptail ~capacity:cfg.Config.buffer_packets
    | Scenario.Red -> red ~ecn_mark:false ~adaptive:false
    | Scenario.Red_ecn -> red ~ecn_mark:true ~adaptive:false
    | Scenario.Red_adaptive -> red ~ecn_mark:false ~adaptive:true
    | Scenario.Sfq_gw ->
        Queue_disc.sfq ~pool ~capacity:cfg.Config.buffer_packets
  in
  Option.iter
    (fun recorder -> Queue_disc.set_recorder q ~recorder ~pool ~name:"gateway")
    recorder;
  q

(* Per-client propagation delays: homogeneous by default, optionally
   spread uniformly around tau_c to break RTT synchronization. *)
let client_delays cfg =
  let n = cfg.Config.clients in
  let spread = cfg.Config.client_delay_spread_s in
  if spread = 0. then Array.make n (Time.of_sec cfg.Config.client_delay_s)
  else begin
    let delay_rng =
      Rng.split_named (Rng.create ~seed:cfg.Config.seed) "client-delays"
    in
    Array.init n (fun _ ->
        let jitter = (Rng.float delay_rng -. 0.5) *. spread in
        Time.of_sec (Stdlib.max 1e-4 (cfg.Config.client_delay_s +. jitter)))
  end

let poisson_source cfg ~master sched i ~sink =
  let rng = Rng.split_named master (Printf.sprintf "client-%d" i) in
  let start =
    if cfg.Config.start_stagger_s > 0. then
      Time.of_sec (Rng.float rng *. cfg.Config.start_stagger_s)
    else Time.zero
  in
  Traffic.Poisson.start sched ~rng
    ~mean_interarrival:cfg.Config.mean_interarrival_s ~start
    ~until:(Time.of_sec cfg.Config.duration_s)
    ~sink

let create ?recorder ?(trace_clients = []) cfg scenario =
  Config.validate cfg;
  let n = cfg.Config.clients in
  (* Pre-size the event queue for the steady state: each client holds at
     most a window of data segments plus ACKs in flight (two events per
     packet: tx-done and delivery), plus per-flow timers and a small
     fixed overhead for sampling/warmup events. Over-estimating only
     costs a few words; under-estimating just means one array doubling. *)
  let queue_capacity = 64 + (n * ((4 * cfg.Config.adv_window) + 8)) in
  let sched = Scheduler.create ~queue_capacity () in
  let rng = Rng.create ~seed:cfg.Config.seed in
  (* Live packets at any instant: per client a window of data plus the
     matching ACKs, plus whatever sits in the gateway buffer. *)
  let pool =
    Packet_pool.create
      ~capacity:(64 + (n * ((2 * cfg.Config.adv_window) + 4)) + cfg.Config.buffer_packets)
      ()
  in
  let router = Router.create ?recorder ~name:"gateway" ~pool () in
  let server = Node.create ~id:server_id ~pool in
  let client_nodes = Array.init n (fun i -> Node.create ~id:(client_id i) ~pool) in
  let client_bw = Units.mbps cfg.Config.client_bandwidth_mbps in
  let bottleneck_bw = Units.mbps cfg.Config.bottleneck_bandwidth_mbps in
  let delays = client_delays cfg in
  let bottleneck_delay = Time.of_sec cfg.Config.bottleneck_delay_s in
  let gateway = gateway_queue ?recorder cfg scenario rng pool in
  let bottleneck =
    Link.create sched ~name:"bottleneck" ~bandwidth:bottleneck_bw
      ~delay:bottleneck_delay ~queue:gateway ~pool
      ~deliver:(Node.receive server)
  in
  let reverse_bottleneck =
    Link.create sched ~name:"bottleneck-rev" ~bandwidth:bottleneck_bw
      ~delay:bottleneck_delay
      ~queue:(Queue_disc.droptail ~capacity:lossless_capacity)
      ~pool
      ~deliver:(Router.receive router)
  in
  Router.set_default router bottleneck;
  let up_links =
    Array.init n (fun i ->
        Link.create sched
          ~name:(Printf.sprintf "up-%d" i)
          ~bandwidth:client_bw ~delay:delays.(i)
          ~queue:(Queue_disc.droptail ~capacity:lossless_capacity)
          ~pool
          ~deliver:(Router.receive router))
  in
  let down_links =
    Array.init n (fun i ->
        Link.create sched
          ~name:(Printf.sprintf "down-%d" i)
          ~bandwidth:client_bw ~delay:delays.(i)
          ~queue:(Queue_disc.droptail ~capacity:lossless_capacity)
          ~pool
          ~deliver:(Node.receive client_nodes.(i)))
  in
  Array.iteri (fun i link -> Router.add_route router ~dst:(client_id i) link) down_links;
  (* One sender group and one receiver group carry every TCP flow:
     attaching a flow claims a row in each slab, so client count scales
     without per-flow records, closures or hashtables. Group creation
     consumes no randomness and schedules nothing, so seed-for-seed
     behaviour is unchanged from the per-flow-record construction. *)
  let flows =
    match scenario.Scenario.transport with
    | Scenario.Udp -> None
    | Scenario.Tcp { cc; delayed_ack } ->
        let ecn_capable = scenario.Scenario.gateway = Scenario.Red_ecn in
        let sack = cc = Scenario.Sack in
        let variant, vegas = make_cc cfg cc in
        let sender_group =
          Transport.Tcp_sender.create_group ~ecn_capable ~sack
            ~cwnd_validation:cfg.Config.cwnd_validation
            ~pacing:cfg.Config.pacing ?recorder ?vegas ~capacity:n sched
            ~pool ~cc:variant ~rto_params:cfg.Config.rto
            ~mss_bytes:cfg.Config.packet_bytes
            ~adv_window:cfg.Config.adv_window
            ~transmit:(fun ~flow p -> Link.send up_links.(flow) p)
        in
        let receiver_group =
          Transport.Tcp_receiver.create_group ~sack ?recorder ~capacity:n
            sched ~pool ~ack_bytes:cfg.Config.ack_bytes ~delayed_ack
            ~adv_window:cfg.Config.adv_window
            ~transmit:(fun ~flow:_ p -> Link.send reverse_bottleneck p)
        in
        Some (sender_group, receiver_group)
  in
  let endpoints =
    Array.init n (fun i ->
        match (flows, scenario.Scenario.transport) with
        | None, _ | _, Scenario.Udp ->
            let sender =
              Transport.Udp.create_sender sched ~pool ~flow:i ~src:(client_id i)
                ~dst:server_id ~size_bytes:cfg.Config.packet_bytes
                ~transmit:(Link.send up_links.(i))
            in
            Udp_end (sender, Transport.Udp.create_receiver ~pool ())
        | Some (sender_group, receiver_group), Scenario.Tcp _ ->
            let sender =
              Transport.Tcp_sender.attach sender_group ~flow:i
                ~src:(client_id i) ~dst:server_id
                ~trace_cwnd:(List.mem i trace_clients) ()
            in
            let receiver =
              Transport.Tcp_receiver.attach receiver_group ~flow:i
                ~src:server_id ~dst:(client_id i) ()
            in
            Tcp_end (sender, receiver))
  in
  Node.set_handler server (fun h ->
      let flow = Packet_pool.flow pool h in
      if flow >= 0 && flow < n then
        match endpoints.(flow) with
        | Tcp_end (_, receiver) -> Transport.Tcp_receiver.handle_packet receiver h
        | Udp_end (_, receiver) -> Transport.Udp.handle_packet receiver h);
  Array.iteri
    (fun i node ->
      Node.set_handler node (fun h ->
          match endpoints.(i) with
          | Tcp_end (sender, _) -> Transport.Tcp_sender.handle_packet sender h
          | Udp_end _ -> ()))
    client_nodes;
  {
    sched;
    rng;
    pool;
    bottleneck;
    reverse_bottleneck;
    up_links;
    down_links;
    endpoints;
    flows;
  }

let scheduler t = t.sched

let rng t = t.rng

let pool t = t.pool

let bottleneck t = t.bottleneck

let reclaim t =
  Link.reclaim t.bottleneck;
  Link.reclaim t.reverse_bottleneck;
  Array.iter Link.reclaim t.up_links;
  Array.iter Link.reclaim t.down_links

let sink t i n =
  match t.endpoints.(i) with
  | Tcp_end (sender, _) -> Transport.Tcp_sender.write sender n
  | Udp_end (sender, _) -> Transport.Udp.write sender n

let tcp_sender t i =
  match t.endpoints.(i) with
  | Tcp_end (sender, _) -> Some sender
  | Udp_end _ -> None

let per_client_delivered t =
  Array.map
    (function
      | Tcp_end (_, receiver) -> Transport.Tcp_receiver.delivered receiver
      | Udp_end (_, receiver) -> Transport.Udp.received receiver)
    t.endpoints

let delivered_total t = Array.fold_left ( + ) 0 (per_client_delivered t)

let tcp_stats_total t =
  Array.fold_left
    (fun acc ep ->
      match ep with
      | Tcp_end (sender, _) ->
          Transport.Tcp_stats.add acc (Transport.Tcp_sender.stats sender)
      | Udp_end _ -> acc)
    (Transport.Tcp_stats.create ()) t.endpoints

let ecn_reactions_total t =
  Array.fold_left
    (fun acc ep ->
      match ep with
      | Tcp_end (sender, _) -> acc + Transport.Tcp_sender.ecn_reactions sender
      | Udp_end _ -> acc)
    0 t.endpoints

let segments_sent_total t =
  Array.fold_left
    (fun acc ep ->
      match ep with
      | Tcp_end (sender, _) ->
          acc + (Transport.Tcp_sender.stats sender).Transport.Tcp_stats.segments_sent
      | Udp_end (sender, _) -> acc + Transport.Udp.sent sender)
    0 t.endpoints

(* ------------------------------------------------------------------ *)
(* Flow-table accounting (0 / no-op for UDP scenarios) *)

let release_flows t =
  Array.iter
    (function
      | Tcp_end (sender, receiver) ->
          Transport.Tcp_sender.detach sender;
          Transport.Tcp_receiver.detach receiver
      | Udp_end _ -> ())
    t.endpoints

let flows_live t =
  match t.flows with
  | None -> 0
  | Some (sg, rg) ->
      Netsim.Flow_table.live (Transport.Tcp_sender.table sg)
      + Netsim.Flow_table.live (Transport.Tcp_receiver.table rg)

let flow_table_growths t =
  match t.flows with
  | None -> 0
  | Some (sg, rg) ->
      Netsim.Flow_table.growth_count (Transport.Tcp_sender.table sg)
      + Netsim.Flow_table.growth_count (Transport.Tcp_receiver.table rg)

let flow_table_bytes_per_flow t =
  match t.flows with
  | None -> 0
  | Some (sg, rg) ->
      Netsim.Flow_table.bytes_per_flow (Transport.Tcp_sender.table sg)
      + Netsim.Flow_table.bytes_per_flow (Transport.Tcp_receiver.table rg)

let flow_table_footprint_bytes t =
  match t.flows with
  | None -> 0
  | Some (sg, rg) ->
      Netsim.Flow_table.footprint_bytes (Transport.Tcp_sender.table sg)
      + Netsim.Flow_table.footprint_bytes (Transport.Tcp_receiver.table rg)
