type t = {
  name : string;
  pool : Packet_pool.t;
  routes : (int, Link.t) Hashtbl.t;
  mutable default : Link.t option;
  mutable forwarded : int;
  (* Optional flight-recorder wiring: retransmitted data segments
     passing through the router write a lifecycle record, surfacing the
     recovery traffic the paper's burstiness analysis cares about. *)
  mutable rlane : Telemetry.Recorder.lane option;
  mutable rsid : int;
}

let create ?recorder ~name ~pool () =
  let recorder =
    match recorder with
    | Some r when Telemetry.Recorder.lifecycle r -> Some r
    | Some _ | None -> None
  in
  let rlane = Option.map (fun r -> Telemetry.Recorder.lane r 0) recorder in
  let rsid =
    match recorder with None -> 0 | Some r -> Telemetry.Recorder.intern r name
  in
  {
    name;
    pool;
    routes = Hashtbl.create 16;
    default = None;
    forwarded = 0;
    rlane;
    rsid;
  }

let add_route t ~dst link =
  if Hashtbl.mem t.routes dst then
    invalid_arg (Printf.sprintf "Router.add_route(%s): duplicate route for %d" t.name dst);
  Hashtbl.add t.routes dst link

let set_default t link = t.default <- Some link

let record_rtx t h =
  match t.rlane with
  | None -> ()
  | Some lane ->
      if Packet_pool.is_retransmitted_data t.pool h then
        Telemetry.Recorder.record lane
          ~tick:(Sim_engine.Time.to_ns (Packet_pool.sent_at t.pool h))
          ~kind:Telemetry.Record.router_rtx_forward
          ~flow:(Packet_pool.flow t.pool h)
          ~a:(Packet_pool.uid t.pool h)
          ~b:(Packet_pool.dst t.pool h)
          ~c:(Packet_pool.seq t.pool h)
          ~sid:t.rsid ~depth:0

let receive t h =
  t.forwarded <- t.forwarded + 1;
  record_rtx t h;
  (* [find], not [find_opt]: a hit (every ACK at the gateway) must not
     allocate a [Some]. *)
  match Hashtbl.find t.routes (Packet_pool.dst t.pool h) with
  | link -> Link.send link h
  | exception Not_found -> (
      match t.default with
      | Some link -> Link.send link h
      | None ->
          failwith
            (Printf.sprintf "Router %s: no route for destination %d" t.name
               (Packet_pool.dst t.pool h)))

let forwarded t = t.forwarded
