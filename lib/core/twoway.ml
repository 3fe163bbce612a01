module Time = Sim_engine.Time
module Scheduler = Sim_engine.Scheduler
module Rng = Sim_engine.Rng
module Link = Netsim.Link
module Node = Netsim.Node
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

(* Node id blocks; gateway side holds forward sources and reverse sinks,
   server side the opposites. *)
let fwd_src_id i = 100 + i

let fwd_dst_id i = 200 + i

let rev_src_id j = 300 + j

let rev_dst_id j = 400 + j

let gateway_side id = (id >= 100 && id < 200) || id >= 400

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
  let bw_access = Units.mbps cfg.Config.client_bandwidth_mbps in
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
  let handlers : (int, Netsim.Packet_pool.handle -> unit) Hashtbl.t =
    Hashtbl.create 64
  in
  let attach id =
    let node = Node.create ~id ~pool in
    Node.set_handler node (fun h ->
        match Hashtbl.find_opt handlers id with Some f -> f h | None -> ());
    let router = if gateway_side id then gw else svr in
    let up =
      Link.create sched
        ~name:(Printf.sprintf "up-%d" id)
        ~bandwidth:bw_access ~delay:access_delay
        ~queue:(Queue_disc.droptail ~capacity:1_000_000)
        ~pool
        ~deliver:(Router.receive router)
    in
    let down =
      Link.create sched
        ~name:(Printf.sprintf "down-%d" id)
        ~bandwidth:bw_access ~delay:access_delay
        ~queue:(Queue_disc.droptail ~capacity:1_000_000)
        ~pool
        ~deliver:(Node.receive node)
    in
    Router.add_route router ~dst:id down;
    up
  in
  (* Flows 0..n-1 run forward, n.. in reverse; each gets its source's
     access link and then its sink's, in flow order. *)
  let flows = n + reverse_clients in
  let ids flow =
    if flow < n then (fwd_src_id flow, fwd_dst_id flow)
    else (rev_src_id (flow - n), rev_dst_id (flow - n))
  in
  let access =
    Array.init flows (fun flow ->
        let src_id, dst_id = ids flow in
        let src_up = attach src_id in
        (src_up, attach dst_id))
  in
  (* One sender group and one receiver group carry every connection, as
     in {!Dumbbell}: [transmit ~flow] picks the flow's access link. *)
  let variant, vegas = Dumbbell.make_cc cfg cc in
  let sender_group =
    Transport.Tcp_sender.create_group ?vegas ~capacity:flows sched ~pool
      ~cc:variant ~rto_params:cfg.Config.rto
      ~mss_bytes:cfg.Config.packet_bytes ~adv_window:cfg.Config.adv_window
      ~transmit:(fun ~flow p -> Link.send (fst access.(flow)) p)
  in
  let receiver_group =
    Transport.Tcp_receiver.create_group ~capacity:flows sched ~pool
      ~ack_bytes:cfg.Config.ack_bytes ~delayed_ack:false
      ~adv_window:cfg.Config.adv_window
      ~transmit:(fun ~flow p -> Link.send (snd access.(flow)) p)
  in
  let connect flow =
    let src_id, dst_id = ids flow in
    let sender =
      Transport.Tcp_sender.attach sender_group ~flow ~src:src_id ~dst:dst_id ()
    in
    let receiver =
      Transport.Tcp_receiver.attach receiver_group ~flow ~src:dst_id
        ~dst:src_id ()
    in
    Hashtbl.replace handlers src_id (Transport.Tcp_sender.handle_packet sender);
    Hashtbl.replace handlers dst_id (Transport.Tcp_receiver.handle_packet receiver);
    (sender, receiver)
  in
  let forward = List.init n connect in
  let rev = List.init reverse_clients (fun j -> connect (n + j)) in
  (* Burstiness of the forward aggregate only: data packets on the forward
     bottleneck (ACKs of reverse flows also cross it but are not data). *)
  let binner =
    Netsim.Monitor.arrival_binner pool fwd_bottleneck ~origin:cfg.Config.warmup_s
      ~width:(Config.rtt_prop_s cfg)
  in
  let horizon = Time.of_sec cfg.Config.duration_s in
  let poisson_into k (sender, _) =
    let rng = Rng.split_named rng (Printf.sprintf "flow-%d" k) in
    ignore
      (Traffic.Poisson.start sched ~rng
         ~mean_interarrival:cfg.Config.mean_interarrival_s ~start:Time.zero
         ~until:horizon
         ~sink:(Transport.Tcp_sender.write sender))
  in
  List.iteri poisson_into forward;
  List.iteri (fun j conn -> poisson_into (n + j) conn) rev;
  Scheduler.run ~until:horizon sched;
  let counts = Netstats.Binned.counts binner ~upto:cfg.Config.duration_s in
  let cov =
    if Array.length counts < 2 then 0.
    else (Netstats.Summary.of_array counts).Netstats.Summary.cov
  in
  let delivered conns =
    List.fold_left
      (fun acc (_, receiver) -> acc + Transport.Tcp_receiver.delivered receiver)
      0 conns
  in
  let arrivals = Link.arrivals fwd_bottleneck and drops = Link.drops fwd_bottleneck in
  {
    forward_clients = n;
    reverse_clients;
    forward_cov = cov;
    analytic_cov = Analytic.poisson_cov cfg;
    forward_delivered = delivered forward;
    forward_loss_pct =
      (if arrivals = 0 then 0. else 100. *. float_of_int drops /. float_of_int arrivals);
    reverse_delivered = delivered rev;
  }

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
