module Time = Sim_engine.Time
module Scheduler = Sim_engine.Scheduler
module Link = Netsim.Link
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

let access_delay = Time.of_ms 10.

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
  (* Flows in order, as (source router, sink router): the long flow,
     then hop by hop its cross flows. Flow f's source is host 2f+1 and
     its sink host 2f+2. *)
  let ends =
    Array.of_list
      ((0, hops)
      :: List.concat_map
           (fun k -> List.init cross_per_hop (fun _ -> (k, k + 1)))
           (List.init hops Fun.id))
  in
  let flows = Array.length ends in
  let access dir host deliver =
    Dumbbell.access_link cfg sched pool
      ~name:(Printf.sprintf "%s-%d" dir host)
      ~delay:access_delay ~deliver
  in
  let src_up =
    Array.mapi
      (fun f (r, _) -> access "up" ((2 * f) + 1) (Router.receive routers.(r)))
      ends
  in
  let dst_up =
    Array.mapi
      (fun f (_, r) -> access "up" ((2 * f) + 2) (Router.receive routers.(r)))
      ends
  in
  (* Routing: walk the chain toward the router the host hangs off, then
     take its down link. *)
  let route_all ~host ~at_router ~down =
    Array.iteri
      (fun k router ->
        if k = at_router then Router.add_route router ~dst:host down
        else if k < at_router then Router.add_route router ~dst:host forward.(k)
        else Router.add_route router ~dst:host reverse.(k - 1))
      routers
  in
  let senders, receivers =
    Dumbbell.tcp_groups ~recorder:None cfg
      { Scenario.transport = Scenario.Tcp { cc; delayed_ack = false };
        gateway = Scenario.Fifo }
      sched pool ~capacity:flows
      ~data:(fun ~flow p -> Link.send src_up.(flow) p)
      ~ack:(fun ~flow p -> Link.send dst_up.(flow) p)
  in
  (* Each host's down link ends at its endpoint. *)
  let downs = ref [] in
  let down host deliver =
    let link = access "down" host deliver in
    downs := link :: !downs;
    link
  in
  let connections =
    List.init flows (fun flow ->
        let src_router, dst_router = ends.(flow) in
        let src = (2 * flow) + 1 and dst = (2 * flow) + 2 in
        let sender = Transport.Tcp_sender.attach senders ~flow ~src ~dst () in
        let receiver =
          Transport.Tcp_receiver.attach receivers ~flow ~src:dst ~dst:src ()
        in
        route_all ~host:dst ~at_router:dst_router
          ~down:(down dst (Dumbbell.receiver_sink pool receiver));
        route_all ~host:src ~at_router:src_router
          ~down:(down src (Dumbbell.sender_sink pool sender));
        (sender, receiver))
  in
  (* Greedy sources everywhere. *)
  List.iter
    (fun (sender, _) -> Transport.Tcp_sender.write sender Traffic.Bulk.infinite_backlog_size)
    connections;
  let duration_s = cfg.Config.duration_s in
  let half = duration_s /. 2. in
  let at_half = Array.make flows 0 in
  ignore
    (Scheduler.at sched (Time.of_sec half) (fun () ->
         List.iteri
           (fun i (_, receiver) ->
             at_half.(i) <- Transport.Tcp_receiver.delivered receiver)
           connections));
  Scheduler.run ~until:(Time.of_sec duration_s) sched;
  let rates =
    List.mapi
      (fun i (_, receiver) ->
        float_of_int (Transport.Tcp_receiver.delivered receiver - at_half.(i))
        /. (duration_s -. half))
      connections
  in
  let long_rate, cross_rates =
    match rates with r :: rest -> (r, rest) | [] -> assert false
  in
  Dumbbell.finish_tcp
    ~links:
      (Array.to_list forward @ Array.to_list reverse @ Array.to_list src_up
      @ Array.to_list dst_up @ List.rev !downs)
    ~pool (senders, receivers) connections;
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
