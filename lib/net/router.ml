type t = {
  name : string;
  pool : Packet_pool.t;
  mutable routes : Link.t option array; (* indexed by [dst]; None = no route *)
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
    routes = [||];
    default = None;
    forwarded = 0;
    rlane;
    rsid;
  }

let add_route t ~dst link =
  if dst < 0 then
    invalid_arg (Printf.sprintf "Router.add_route(%s): negative destination %d" t.name dst);
  let n = Array.length t.routes in
  if dst >= n then begin
    let routes = Array.make (max (dst + 1) (2 * n)) None in
    Array.blit t.routes 0 routes 0 n;
    t.routes <- routes
  end;
  if Option.is_some t.routes.(dst) then
    invalid_arg (Printf.sprintf "Router.add_route(%s): duplicate route for %d" t.name dst);
  t.routes.(dst) <- Some link

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

(* One bounds check and one load per packet: reading a stored [Some]
   allocates nothing, and a miss (every data packet at the gateway)
   falls through to the default route without raising. *)
let route t dst =
  match if dst >= 0 && dst < Array.length t.routes then t.routes.(dst) else None with
  | Some _ as hit -> hit
  | None -> t.default

let receive t h =
  t.forwarded <- t.forwarded + 1;
  record_rtx t h;
  let dst = Packet_pool.dst t.pool h in
  match route t dst with
  | Some link -> Link.send link h
  | None ->
      failwith (Printf.sprintf "Router %s: no route for destination %d" t.name dst)

let forwarded t = t.forwarded
