module Time = Sim_engine.Time
module Scheduler = Sim_engine.Scheduler
module Link = Netsim.Link
module Node = Netsim.Node
module Router = Netsim.Router
module Units = Netsim.Units
module Queue_disc = Netsim.Queue_disc

type result = {
  hops : int;
  long_throughput_pps : float;
  cross_throughput_pps : float;
  long_share : float;
  jain_all : float;
}

(* Node ids: the long flow's endpoints, then per-hop cross endpoints. *)
let long_src_id = 1

let long_dst_id = 2

let cross_src_id k = 100 + k

let cross_dst_id k = 200 + k

let access_delay = Time.of_ms 10.

type endpoint = {
  sender : Transport.Tcp_sender.t option;
  receiver : Transport.Tcp_receiver.t option;
}

(* Well above the multi-hop bandwidth-delay product, so flows are
   congestion-limited, not receiver-limited. *)
let adv_window = 600

let run cfg ~cc ~hops ~cross_per_hop =
  if hops < 1 then invalid_arg "Parking_lot.run: hops < 1";
  if cross_per_hop < 0 then invalid_arg "Parking_lot.run: negative cross_per_hop";
  let cfg = { cfg with Config.adv_window } in
  let sched = Scheduler.create () in
  let pool =
    Netsim.Packet_pool.create
      ~capacity:
        (64
        + ((1 + (hops * cross_per_hop)) * ((2 * adv_window) + 4))
        + ((hops + 1) * cfg.Config.buffer_packets))
      ()
  in
  let bottleneck_bw = Units.mbps cfg.Config.bottleneck_bandwidth_mbps in
  let access_bw = Units.mbps cfg.Config.client_bandwidth_mbps in
  let hop_delay = Time.of_sec cfg.Config.bottleneck_delay_s in
  let routers =
    Array.init (hops + 1) (fun k ->
        Router.create ~name:(Printf.sprintf "R%d" k) ~pool ())
  in
  (* Forward bottlenecks F_k : R_k -> R_k+1 and lossless reverses. *)
  let forward =
    Array.init hops (fun k ->
        Link.create sched
          ~name:(Printf.sprintf "hop-%d" k)
          ~bandwidth:bottleneck_bw ~delay:hop_delay
          ~queue:(Queue_disc.droptail ~capacity:cfg.Config.buffer_packets)
          ~pool
          ~deliver:(Router.receive routers.(k + 1)))
  in
  let reverse =
    Array.init hops (fun k ->
        Link.create sched
          ~name:(Printf.sprintf "hop-%d-rev" k)
          ~bandwidth:bottleneck_bw ~delay:hop_delay
          ~queue:(Queue_disc.droptail ~capacity:1_000_000)
          ~pool
          ~deliver:(Router.receive routers.(k)))
  in
  (* Endpoint bookkeeping: node, its router, its access links. *)
  let endpoints : (int, endpoint) Hashtbl.t = Hashtbl.create 16 in
  let nodes : (int, Node.t) Hashtbl.t = Hashtbl.create 16 in
  let attach ~id ~router_idx =
    let node = Node.create ~id ~pool in
    Hashtbl.replace nodes id node;
    let up =
      Link.create sched
        ~name:(Printf.sprintf "up-%d" id)
        ~bandwidth:access_bw ~delay:access_delay
        ~queue:(Queue_disc.droptail ~capacity:1_000_000)
        ~pool
        ~deliver:(Router.receive routers.(router_idx))
    in
    let down =
      Link.create sched
        ~name:(Printf.sprintf "down-%d" id)
        ~bandwidth:access_bw ~delay:access_delay
        ~queue:(Queue_disc.droptail ~capacity:1_000_000)
        ~pool
        ~deliver:(Node.receive node)
    in
    (node, up, down)
  in
  (* Routing: walk the chain toward the router the destination hangs off,
     then take its down link. *)
  let route_all ~dst_id ~at_router ~down =
    Array.iteri
      (fun k router ->
        if k = at_router then Router.add_route router ~dst:dst_id down
        else if k < at_router then Router.add_route router ~dst:dst_id forward.(k)
        else Router.add_route router ~dst:dst_id reverse.(k - 1))
      routers
  in
  (* Connections in flow order, as (src, src router, dst, dst router):
     the long flow, then hop by hop its cross flows. *)
  let conns =
    Array.of_list
      ((long_src_id, 0, long_dst_id, hops)
      :: List.concat_map
           (fun k ->
             List.init cross_per_hop (fun j ->
                 let idx = (k * cross_per_hop) + j in
                 (cross_src_id idx, k, cross_dst_id idx, k + 1)))
           (List.init hops Fun.id))
  in
  let access =
    Array.map
      (fun (src_id, src_router, dst_id, dst_router) ->
        let _, src_up, src_down = attach ~id:src_id ~router_idx:src_router in
        let _, dst_up, dst_down = attach ~id:dst_id ~router_idx:dst_router in
        route_all ~dst_id ~at_router:dst_router ~down:dst_down;
        route_all ~dst_id:src_id ~at_router:src_router ~down:src_down;
        (src_up, dst_up))
      conns
  in
  (* One sender group and one receiver group carry every connection, as
     in {!Dumbbell}: [transmit ~flow] picks the flow's access link. *)
  let variant, vegas = Dumbbell.make_cc cfg cc in
  let sack = cc = Scenario.Sack in
  let flows = Array.length conns in
  let sender_group =
    Transport.Tcp_sender.create_group ~sack ?vegas ~capacity:flows sched ~pool
      ~cc:variant ~rto_params:cfg.Config.rto
      ~mss_bytes:cfg.Config.packet_bytes ~adv_window
      ~transmit:(fun ~flow p -> Link.send (fst access.(flow)) p)
  in
  let receiver_group =
    Transport.Tcp_receiver.create_group ~sack ~capacity:flows sched ~pool
      ~ack_bytes:cfg.Config.ack_bytes ~delayed_ack:false ~adv_window
      ~transmit:(fun ~flow p -> Link.send (snd access.(flow)) p)
  in
  let connections =
    List.init flows (fun flow ->
        let src_id, _, dst_id, _ = conns.(flow) in
        let sender =
          Transport.Tcp_sender.attach sender_group ~flow ~src:src_id
            ~dst:dst_id ()
        in
        let receiver =
          Transport.Tcp_receiver.attach receiver_group ~flow ~src:dst_id
            ~dst:src_id ()
        in
        Hashtbl.replace endpoints src_id { sender = Some sender; receiver = None };
        Hashtbl.replace endpoints dst_id { sender = None; receiver = Some receiver };
        (sender, receiver))
  in
  (* Node handlers dispatch to the endpoint that lives there. *)
  Hashtbl.iter
    (fun id node ->
      let ep = Hashtbl.find endpoints id in
      Node.set_handler node (fun h ->
          match ep with
          | { sender = Some s; _ } -> Transport.Tcp_sender.handle_packet s h
          | { receiver = Some r; _ } -> Transport.Tcp_receiver.handle_packet r h
          | _ -> ()))
    nodes;
  (* Greedy sources everywhere. *)
  List.iter
    (fun (sender, _) -> Transport.Tcp_sender.write sender Traffic.Bulk.infinite_backlog_size)
    connections;
  let duration_s = cfg.Config.duration_s in
  let half = duration_s /. 2. in
  let at_half = Hashtbl.create 16 in
  ignore
    (Scheduler.at sched (Time.of_sec half) (fun () ->
         List.iteri
           (fun i (_, receiver) ->
             Hashtbl.replace at_half i (Transport.Tcp_receiver.delivered receiver))
           connections));
  Scheduler.run ~until:(Time.of_sec duration_s) sched;
  let rates =
    List.mapi
      (fun i (_, receiver) ->
        let before = Option.value (Hashtbl.find_opt at_half i) ~default:0 in
        float_of_int (Transport.Tcp_receiver.delivered receiver - before)
        /. (duration_s -. half))
      connections
  in
  let long_rate, cross_rates =
    match rates with r :: rest -> (r, rest) | [] -> assert false
  in
  let fair = Hybrid.capacity_pps cfg /. float_of_int (1 + cross_per_hop) in
  {
    hops;
    long_throughput_pps = long_rate;
    cross_throughput_pps =
      (if cross_rates = [] then 0.
       else List.fold_left ( +. ) 0. cross_rates /. float_of_int (List.length cross_rates));
    long_share = long_rate /. fair;
    jain_all = Fairness.jain (Array.of_list rates);
  }

let report ppf cfg =
  Format.fprintf ppf
    "Parking lot: one long flow vs per-hop cross traffic (greedy, 1 cross/hop)@.@.";
  let rows =
    List.concat_map
      (fun hops ->
        List.map
          (fun (label, cc) ->
            let r = run cfg ~cc ~hops ~cross_per_hop:1 in
            [
              string_of_int hops;
              label;
              Render.fmt_float r.long_throughput_pps;
              Render.fmt_float r.cross_throughput_pps;
              Printf.sprintf "%.2f" r.long_share;
              Render.fmt_float r.jain_all;
            ])
          [
            ("Reno", Scenario.Reno);
            ("NewReno", Scenario.Newreno);
            ("SACK", Scenario.Sack);
            ("Vegas", Scenario.Vegas);
          ])
      [ 2; 3; 4 ]
  in
  Render.table ppf
    ~header:[ "hops"; "protocol"; "long pps"; "cross pps"; "long share"; "jain" ]
    ~rows;
  Format.fprintf ppf
    "@.'long share' is the long flow's throughput over its per-hop fair@.";
  Format.fprintf ppf
    "share; < 1 means multi-hop flows lose to single-hop cross traffic.@."
