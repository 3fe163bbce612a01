module Time = Sim_engine.Time
module Scheduler = Sim_engine.Scheduler
module Rng = Sim_engine.Rng
module Link = Netsim.Link
module Router = Netsim.Router
module Units = Netsim.Units
module Queue_disc = Netsim.Queue_disc
module Packet_pool = Netsim.Packet_pool

type endpoint =
  | Tcp_end of Transport.Tcp_sender.t * Transport.Tcp_receiver.t
  | Udp_end of Transport.Udp.sender * Transport.Udp.receiver

type exit =
  | Deliver of (Packet_pool.handle -> unit)
  | Handoff of (Time.t -> Packet_pool.handle -> unit)

type clients = {
  lo : int;
  csched : Scheduler.t;
  cpool : Packet_pool.t;
  up_links : Link.t array;
  down_links : Link.t array;
  endpoints : endpoint array;
  (* The flow-table groups behind the TCP endpoints ([None] for UDP):
     every sender of the slice shares one struct-of-arrays slab, every
     receiver another — see {!Transport.Tcp_sender.create_group}. *)
  flows : (Transport.Tcp_sender.group * Transport.Tcp_receiver.group) option;
  mutable sources : Traffic.Source.t list;
}

type t = {
  sched : Scheduler.t;
  rng : Rng.t;
  pool : Packet_pool.t;
  bottleneck : Link.t;
  reverse_bottleneck : Link.t;
  clients : clients;
  trace_clients : int list;
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

(* ------------------------------------------------------------------ *)
(* Hosts: the pieces every topology wires its endpoints from *)

let access_link cfg sched pool ~name ~delay ~deliver =
  Link.create sched ~name
    ~bandwidth:(Units.mbps cfg.Config.client_bandwidth_mbps)
    ~delay
    ~queue:(Queue_disc.droptail ~capacity:lossless_capacity)
    ~pool ~deliver

(* Group creation consumes no randomness and schedules nothing, so where
   it sits among the link constructors does not change a trajectory. *)
let tcp_groups ~recorder cfg scenario sched pool ~capacity ~data ~ack =
  match scenario.Scenario.transport with
  | Scenario.Udp -> invalid_arg "Dumbbell.tcp_groups: UDP scenario"
  | Scenario.Tcp { cc; delayed_ack } ->
      let sack = cc = Scenario.Sack in
      let variant, vegas = make_cc cfg cc in
      let senders =
        Transport.Tcp_sender.create_group
          ~ecn_capable:(scenario.Scenario.gateway = Scenario.Red_ecn)
          ~sack ~cwnd_validation:cfg.Config.cwnd_validation
          ~pacing:cfg.Config.pacing ?recorder ?vegas ~capacity sched ~pool
          ~cc:variant ~rto_params:cfg.Config.rto
          ~mss_bytes:cfg.Config.packet_bytes ~adv_window:cfg.Config.adv_window
          ~transmit:data
      in
      let receivers =
        Transport.Tcp_receiver.create_group ~sack ?recorder ~capacity sched
          ~pool ~ack_bytes:cfg.Config.ack_bytes ~delayed_ack
          ~adv_window:cfg.Config.adv_window ~transmit:ack
      in
      (senders, receivers)

(* A host is the sink of its down link: its endpoint reads the packet,
   then the slot goes back to the pool. Inlined, so the down link's
   deliver closure in {!build_clients} is the sink itself and each ACK
   costs one closure call. *)
let[@inline] sender_sink pool sender h =
  Transport.Tcp_sender.handle_packet sender h;
  Packet_pool.free pool h

let receiver_sink pool receiver h =
  Transport.Tcp_receiver.handle_packet receiver h;
  Packet_pool.free pool h

(* ------------------------------------------------------------------ *)
(* Clients: one builder and one teardown for both engines *)

(* One sender group and one receiver group carry every TCP flow of the
   slice: attaching a flow claims a row in each slab, so client count
   scales without per-flow records, closures or hashtables. Only the
   attach order (client order, sender before receiver) is visible in a
   trajectory or a recording. *)
let build_clients ~recorder ~trace_clients cfg scenario sched pool ~lo ~n
    ~up_delay ~down_delay ~data ~ack =
  let access name i delay deliver =
    access_link cfg sched pool
      ~name:(Printf.sprintf "%s-%d" name i)
      ~delay ~deliver
  in
  let up_links =
    Array.init n (fun j ->
        let i = lo + j in
        match data with
        | Deliver deliver -> access "up" i (up_delay i) deliver
        | Handoff handoff ->
            let link = access "up" i (up_delay i) (fun _ -> assert false) in
            Link.set_handoff link handoff;
            link)
  in
  let flows =
    if Scenario.is_tcp scenario then
      Some
        (tcp_groups ~recorder cfg scenario sched pool ~capacity:n
           ~data:(fun ~flow p -> Link.send up_links.(flow - lo) p)
           ~ack:(fun ~flow:_ p -> ack p))
    else None
  in
  let endpoints =
    Array.init n (fun j ->
        let i = lo + j in
        match flows with
        | None ->
            let sender =
              Transport.Udp.create_sender sched ~pool ~flow:i ~src:(client_id i)
                ~dst:server_id ~size_bytes:cfg.Config.packet_bytes
                ~transmit:(Link.send up_links.(j))
            in
            Udp_end (sender, Transport.Udp.create_receiver ~pool ())
        | Some (senders, receivers) ->
            let sender =
              Transport.Tcp_sender.attach senders ~flow:i ~src:(client_id i)
                ~dst:server_id
                ~trace_cwnd:(List.mem i trace_clients) ()
            in
            let receiver =
              Transport.Tcp_receiver.attach receivers ~flow:i ~src:server_id
                ~dst:(client_id i) ()
            in
            Tcp_end (sender, receiver))
  in
  let down_links =
    Array.init n (fun j ->
        access "down" (lo + j) (down_delay (lo + j))
          (match endpoints.(j) with
          | Tcp_end (sender, _) -> sender_sink pool sender
          | Udp_end _ -> Packet_pool.free pool))
  in
  {
    lo;
    csched = sched;
    cpool = pool;
    up_links;
    down_links;
    endpoints;
    flows;
    sources = [];
  }

let write c j n =
  match c.endpoints.(j) with
  | Tcp_end (sender, _) -> Transport.Tcp_sender.write sender n
  | Udp_end (sender, _) -> Transport.Udp.write sender n

let start_poisson cfg ~master c =
  c.sources <-
    List.init (Array.length c.endpoints) (fun j ->
        poisson_source cfg ~master c.csched (c.lo + j) ~sink:(write c j))

let deliver_data c h =
  (match c.endpoints.(Packet_pool.flow c.cpool h - c.lo) with
  | Tcp_end (_, receiver) -> Transport.Tcp_receiver.handle_packet receiver h
  | Udp_end (_, receiver) -> Transport.Udp.handle_packet receiver h);
  Packet_pool.free c.cpool h

let deliver_ack c h =
  Link.send c.down_links.(Packet_pool.flow c.cpool h - c.lo) h

let delivered = function
  | Tcp_end (_, receiver) -> Transport.Tcp_receiver.delivered receiver
  | Udp_end (_, receiver) -> Transport.Udp.received receiver

let endpoints ~trace_clients cs eps =
  let tcp_stats =
    Array.fold_left
      (fun acc ep ->
        match ep with
        | Tcp_end (sender, _) ->
            Transport.Tcp_stats.add acc (Transport.Tcp_sender.stats sender)
        | Udp_end _ -> acc)
      (Transport.Tcp_stats.create ()) eps
  in
  let sum f = Array.fold_left (fun acc ep -> acc + f ep) 0 eps in
  {
    Meter.offered =
      List.fold_left
        (fun acc c ->
          List.fold_left
            (fun acc s -> acc + s.Traffic.Source.generated ())
            acc c.sources)
        0 cs;
    per_client_delivered = Array.map delivered eps;
    tcp_stats;
    segments_sent =
      tcp_stats.Transport.Tcp_stats.segments_sent
      + sum (function
          | Udp_end (sender, _) -> Transport.Udp.sent sender
          | Tcp_end _ -> 0);
    ecn_reactions =
      sum (function
        | Tcp_end (sender, _) -> Transport.Tcp_sender.ecn_reactions sender
        | Udp_end _ -> 0);
    cwnd_traces =
      List.filter_map
        (fun i ->
          match eps.(i) with
          | Tcp_end (sender, _) ->
              Some (i, Transport.Tcp_sender.cwnd_trace sender)
          | Udp_end _ -> None)
        trace_clients;
  }

(* A flow-table figure summed over the sender and receiver tables; 0 for
   UDP. *)
let table_sum f c =
  match c.flows with
  | None -> 0
  | Some (sg, rg) ->
      f (Transport.Tcp_sender.table sg) + f (Transport.Tcp_receiver.table rg)

(* The end-of-run leak checks. Links free whatever the horizon left
   queued or in flight, so a nonzero live count afterwards means some
   layer dropped a handle without freeing it; detaching every endpoint
   must likewise drain the slabs. Either leak fails loudly. *)
let reclaim_links links ~pools =
  List.iter Link.reclaim links;
  let live = List.fold_left (fun acc p -> acc + Packet_pool.live p) 0 pools in
  if live <> 0 then
    failwith
      (Printf.sprintf "Dumbbell: %d packet(s) leaked from the pools" live)

let check_rows tables =
  let rows = List.fold_left (fun acc t -> acc + Netsim.Flow_table.live t) 0 tables in
  if rows <> 0 then
    failwith
      (Printf.sprintf "Dumbbell: %d flow row(s) leaked from the flow tables"
         rows)

let finish_tcp ~links ~pool (senders, receivers) conns =
  reclaim_links links ~pools:[ pool ];
  List.iter
    (fun (sender, receiver) ->
      Transport.Tcp_sender.detach sender;
      Transport.Tcp_receiver.detach receiver)
    conns;
  check_rows
    [ Transport.Tcp_sender.table senders; Transport.Tcp_receiver.table receivers ]

(* The packet sweep, then the endpoint totals, then the flow rows. *)
let finish_clients ~links ~pool ~trace_clients cs collect =
  reclaim_links
    (links
    @ List.concat_map
        (fun c -> Array.to_list c.up_links @ Array.to_list c.down_links)
        cs)
    ~pools:(pool :: List.filter_map
                      (fun c -> if c.cpool == pool then None else Some c.cpool)
                      cs);
  (* Flow [i] is entry [i] of the slices' endpoints laid end to end. *)
  let eps = Array.concat (List.map (fun c -> c.endpoints) cs) in
  let result = collect (endpoints ~trace_clients cs eps) in
  Array.iter
    (function
      | Tcp_end (sender, receiver) ->
          Transport.Tcp_sender.detach sender;
          Transport.Tcp_receiver.detach receiver
      | Udp_end _ -> ())
    eps;
  check_rows
    (List.concat_map
       (fun c ->
         match c.flows with
         | None -> []
         | Some (sg, rg) ->
             [ Transport.Tcp_sender.table sg; Transport.Tcp_receiver.table rg ])
       cs);
  result

(* ------------------------------------------------------------------ *)
(* The classic single-domain dumbbell *)

let create ?recorder ?(trace_clients = []) cfg scenario =
  Config.validate cfg;
  let n = cfg.Config.clients in
  (* Pre-size the event queue for the steady state: each client holds at
     most a window of data segments plus ACKs in flight (at most two
     events per packet: its delivery, and a serialization end while a
     packet waits behind it), plus per-flow timers and a small fixed
     overhead for sampling/warmup events. Over-estimating only costs a
     few words; under-estimating just means one array doubling. *)
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
  let bottleneck_bw = Units.mbps cfg.Config.bottleneck_bandwidth_mbps in
  let bottleneck_delay = Time.of_sec cfg.Config.bottleneck_delay_s in
  let gateway = gateway_queue ?recorder cfg scenario rng pool in
  let reverse_bottleneck =
    Link.create sched ~name:"bottleneck-rev" ~bandwidth:bottleneck_bw
      ~delay:bottleneck_delay
      ~queue:(Queue_disc.droptail ~capacity:lossless_capacity)
      ~pool
      ~deliver:(Router.receive router)
  in
  let delays = client_delays cfg in
  let clients =
    build_clients ~recorder ~trace_clients cfg scenario sched pool ~lo:0 ~n
      ~up_delay:(Array.get delays) ~down_delay:(Array.get delays)
      ~data:(Deliver (Router.receive router))
      ~ack:(Link.send reverse_bottleneck)
  in
  let bottleneck =
    Link.create sched ~name:"bottleneck" ~bandwidth:bottleneck_bw
      ~delay:bottleneck_delay ~queue:gateway ~pool
      ~deliver:(deliver_data clients)
  in
  Router.set_default router bottleneck;
  Array.iteri
    (fun i link -> Router.add_route router ~dst:(client_id i) link)
    clients.down_links;
  {
    sched;
    rng;
    pool;
    bottleneck;
    reverse_bottleneck;
    clients;
    trace_clients;
  }

let scheduler t = t.sched

let rng t = t.rng

let pool t = t.pool

let bottleneck t = t.bottleneck

let clients t = t.clients

let sink t i n = write t.clients i n

let per_client_delivered t = Array.map delivered t.clients.endpoints

let delivered_total t = Array.fold_left ( + ) 0 (per_client_delivered t)

let finish t collect =
  finish_clients
    ~links:[ t.bottleneck; t.reverse_bottleneck ]
    ~pool:t.pool ~trace_clients:t.trace_clients [ t.clients ] collect

let flow_table_growths t = table_sum Netsim.Flow_table.growth_count t.clients

let flow_table_bytes_per_flow t =
  table_sum Netsim.Flow_table.bytes_per_flow t.clients

let flow_table_footprint_bytes t =
  table_sum Netsim.Flow_table.footprint_bytes t.clients
