module Time = Sim_engine.Time
module Scheduler = Sim_engine.Scheduler
module Rng = Sim_engine.Rng
module Link = Netsim.Link
module Router = Netsim.Router
module Units = Netsim.Units
module Queue_disc = Netsim.Queue_disc

type result = {
  forward_clients : int;
  reverse_clients : int;
  forward_cov : float;
  analytic_cov : float;
  forward_delivered : int;
  forward_loss_pct : float;
  reverse_delivered : int;
}

let run cfg ~cc ~reverse_clients =
  if reverse_clients < 0 then invalid_arg "Twoway.run: negative reverse_clients";
  let n = cfg.Config.clients in
  let sched = Scheduler.create () in
  let rng = Rng.create ~seed:cfg.Config.seed in
  let pool =
    Netsim.Packet_pool.create
      ~capacity:
        (64
        + ((n + reverse_clients) * ((2 * cfg.Config.adv_window) + 4))
        + (2 * cfg.Config.buffer_packets))
      ()
  in
  let gw = Router.create ~name:"gw" ~pool () in
  let svr = Router.create ~name:"svr" ~pool () in
  let bw_bottleneck = Units.mbps cfg.Config.bottleneck_bandwidth_mbps in
  let bottleneck_delay = Time.of_sec cfg.Config.bottleneck_delay_s in
  let access_delay = Time.of_sec cfg.Config.client_delay_s in
  (* Both bottleneck directions carry data now: both get the finite
     gateway buffer. *)
  let fwd_bottleneck =
    Link.create sched ~name:"fwd" ~bandwidth:bw_bottleneck ~delay:bottleneck_delay
      ~queue:(Queue_disc.droptail ~capacity:cfg.Config.buffer_packets)
      ~pool
      ~deliver:(Router.receive svr)
  in
  let rev_bottleneck =
    Link.create sched ~name:"rev" ~bandwidth:bw_bottleneck ~delay:bottleneck_delay
      ~queue:(Queue_disc.droptail ~capacity:cfg.Config.buffer_packets)
      ~pool
      ~deliver:(Router.receive gw)
  in
  Router.set_default gw fwd_bottleneck;
  Router.set_default svr rev_bottleneck;
  (* Flows 0..n-1 run forward, from behind the gateway to behind the
     server, and n.. in reverse. Flow f's source is host 2f+1 and its
     sink host 2f+2. *)
  let flows = n + reverse_clients in
  let src_router flow = if flow < n then gw else svr in
  let dst_router flow = if flow < n then svr else gw in
  let access dir host deliver =
    Dumbbell.access_link cfg sched pool
      ~name:(Printf.sprintf "%s-%d" dir host)
      ~delay:access_delay ~deliver
  in
  let src_up =
    Array.init flows (fun f ->
        access "up" ((2 * f) + 1) (Router.receive (src_router f)))
  in
  let dst_up =
    Array.init flows (fun f ->
        access "up" ((2 * f) + 2) (Router.receive (dst_router f)))
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
  let conns =
    Array.init flows (fun flow ->
        let src = (2 * flow) + 1 and dst = (2 * flow) + 2 in
        let sender = Transport.Tcp_sender.attach senders ~flow ~src ~dst () in
        let receiver =
          Transport.Tcp_receiver.attach receivers ~flow ~src:dst ~dst:src ()
        in
        Router.add_route (src_router flow) ~dst:src
          (down src (Dumbbell.sender_sink pool sender));
        Router.add_route (dst_router flow) ~dst
          (down dst (Dumbbell.receiver_sink pool receiver));
        (sender, receiver))
  in
  (* Burstiness of the forward aggregate only: data packets on the forward
     bottleneck (ACKs of reverse flows also cross it but are not data). *)
  let binner =
    Netsim.Monitor.arrival_binner pool fwd_bottleneck ~origin:cfg.Config.warmup_s
      ~width:(Config.rtt_prop_s cfg)
  in
  let horizon = Time.of_sec cfg.Config.duration_s in
  Array.iteri
    (fun flow (sender, _) ->
      let rng = Rng.split_named rng (Printf.sprintf "flow-%d" flow) in
      ignore
        (Traffic.Poisson.start sched ~rng
           ~mean_interarrival:cfg.Config.mean_interarrival_s ~start:Time.zero
           ~until:horizon
           ~sink:(Transport.Tcp_sender.write sender)))
    conns;
  Scheduler.run ~until:horizon sched;
  let counts = Netstats.Binned.counts binner ~upto:cfg.Config.duration_s in
  let cov =
    if Array.length counts < 2 then 0.
    else (Netstats.Summary.of_array counts).Netstats.Summary.cov
  in
  let delivered conns =
    Array.fold_left
      (fun acc (_, receiver) -> acc + Transport.Tcp_receiver.delivered receiver)
      0 conns
  in
  let arrivals = Link.arrivals fwd_bottleneck and drops = Link.drops fwd_bottleneck in
  let result =
    {
      forward_clients = n;
      reverse_clients;
      forward_cov = cov;
      analytic_cov = Analytic.poisson_cov cfg;
      forward_delivered = delivered (Array.sub conns 0 n);
      forward_loss_pct =
        (if arrivals = 0 then 0. else 100. *. float_of_int drops /. float_of_int arrivals);
      reverse_delivered = delivered (Array.sub conns n reverse_clients);
    }
  in
  Dumbbell.finish_tcp
    ~links:
      (fwd_bottleneck :: rev_bottleneck
      :: (Array.to_list src_up @ Array.to_list dst_up @ List.rev !downs))
    ~pool (senders, receivers) (Array.to_list conns);
  result

let report ppf cfg =
  let n = cfg.Config.clients in
  Format.fprintf ppf
    "Two-way traffic: %d forward clients, reverse flows share the ACK path@.@." n;
  let rows =
    List.concat_map
      (fun (label, cc) ->
        List.map
          (fun reverse_clients ->
            let r = run cfg ~cc ~reverse_clients in
            [
              label;
              string_of_int reverse_clients;
              Render.fmt_float r.forward_cov;
              Printf.sprintf "%+.1f%%"
                (100. *. (r.forward_cov -. r.analytic_cov) /. r.analytic_cov);
              string_of_int r.forward_delivered;
              Printf.sprintf "%.2f%%" r.forward_loss_pct;
              string_of_int r.reverse_delivered;
            ])
          (List.sort_uniq compare [ 0; n / 2; n ]))
      [ ("Reno", Scenario.Reno); ("Vegas", Scenario.Vegas) ]
  in
  Render.table ppf
    ~header:
      [
        "protocol"; "rev flows"; "fwd cov"; "vs poisson"; "fwd delivered";
        "fwd loss"; "rev delivered";
      ]
    ~rows;
  Format.fprintf ppf
    "@.Reverse data queues the forward ACKs (ACK compression), releasing@.";
  Format.fprintf ppf
    "forward segments in clumps: forward burstiness rises with reverse@.";
  Format.fprintf ppf "load even though the forward offered traffic never changes.@."
