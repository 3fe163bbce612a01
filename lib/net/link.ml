module Time = Sim_engine.Time
module Scheduler = Sim_engine.Scheduler

type t = {
  sched : Scheduler.t;
  name : string;
  bandwidth : Units.bandwidth;
  delay : Time.span;
  queue : Queue_disc.t;
  pool : Packet_pool.t;
  deliver : Packet_pool.handle -> unit;
  (* The serialization in progress, or the last one, ends at [free_at]
     in turn [end_turn]: the turn an end event scheduled at its start
     would hold. That event is scheduled into the turn ([busy]) only
     when a packet waits behind, or on a handoff link; otherwise the
     link is idle once the turn has passed. *)
  mutable free_at : Time.t;
  mutable end_turn : Scheduler.turn;
  mutable busy : bool;
  in_flight : Ring.t;
  (* Packets serializing or propagating, in serialization order. The two
     continuations below are allocated once per link instead of once per
     packet: serialization ends and deliveries each fire in FIFO order
     (a constant propagation delay after strictly increasing
     serialization ends), so the head of [in_flight] is always the
     packet the next delivery event is for. *)
  mutable on_tx_done : unit -> unit;
  mutable on_deliver : unit -> unit;
  (* PDES shard boundaries: when set, the propagation leg is not
     simulated here — at serialization end the head packet is handed to
     the callback with its computed arrival time (now + delay), and the
     owner of the far end schedules the delivery in its own domain. *)
  mutable handoff : (Time.t -> Packet_pool.handle -> unit) option;
  (* Hybrid engine: serialization-time multiplier (>= 1.) modelling the
     share of the line rate consumed by fluid background traffic. At the
     default 1. the guard below keeps the pure-packet path bit-identical. *)
  mutable bg_slowdown : float;
  (* Listener lists are stored newest-first so registration is O(1);
     [notify] walks them back-to-front to keep registration order. *)
  mutable arrival_listeners : (Time.t -> Packet_pool.handle -> unit) list;
  mutable drop_listeners : (Time.t -> Packet_pool.handle -> unit) list;
  mutable depart_listeners : (Time.t -> Packet_pool.handle -> unit) list;
  mutable arrivals : int;
  mutable drops : int;
  mutable departures : int;
  mutable bytes_delivered : int;
}

let rec notify listeners now h =
  match listeners with
  | [] -> ()
  | f :: rest ->
      notify rest now h;
      f now h

(* Serialize the head-of-line packet, if any. Its end takes its turn
   now, and its delivery, [delay] after that end, is scheduled at once.
   The end event goes into its turn only when a packet already waits,
   or on a handoff link, which hands the packet off there; a packet
   arriving later schedules it from [admit]. The continuations are the
   link's preallocated [on_tx_done] and [on_deliver]; the packet travels
   via [in_flight] rather than being captured in a fresh closure per
   transmission. *)
let rec start t =
  let now = Scheduler.now t.sched in
  let h = Queue_disc.dequeue t.queue ~now in
  if Packet_pool.is_nil h then t.busy <- false
  else begin
    Ring.push t.in_flight h;
    let tx =
      Units.transmission_time t.bandwidth ~bytes:(Packet_pool.size_bytes t.pool h)
    in
    let tx = if t.bg_slowdown = 1. then tx else Time.mul tx t.bg_slowdown in
    t.free_at <- Time.add now tx;
    t.end_turn <- Scheduler.take_turn t.sched;
    match t.handoff with
    | Some _ -> end_event t
    | None ->
        ignore (Scheduler.at t.sched (Time.add t.free_at t.delay) t.on_deliver);
        if Queue_disc.length t.queue > 0 then end_event t else t.busy <- false
  end

and end_event t =
  t.busy <- true;
  ignore (Scheduler.at_turn t.sched t.free_at t.end_turn t.on_tx_done)

and tx_done t =
  (match t.handoff with None -> () | Some f -> handoff_head t f);
  start t

(* Departure accounting and listeners fire exactly as [deliver_head]
   would at the far end, stamped with the arrival time, so bottleneck
   delay statistics are identical whichever side simulates the
   propagation leg. *)
and handoff_head t f =
  let h = Ring.pop_exn t.in_flight in
  t.departures <- t.departures + 1;
  t.bytes_delivered <- t.bytes_delivered + Packet_pool.size_bytes t.pool h;
  let arrival = Time.add (Scheduler.now t.sched) t.delay in
  notify t.depart_listeners arrival h;
  f arrival h

and deliver_head t =
  let h = Ring.pop_exn t.in_flight in
  t.departures <- t.departures + 1;
  t.bytes_delivered <- t.bytes_delivered + Packet_pool.size_bytes t.pool h;
  notify t.depart_listeners (Scheduler.now t.sched) h;
  t.deliver h

let create sched ~name ~bandwidth ~delay ~queue ~pool ~deliver =
  let t =
    {
      sched;
      name;
      bandwidth;
      delay;
      queue;
      pool;
      deliver;
      free_at = Time.zero;
      end_turn = Scheduler.no_turn;
      busy = false;
      in_flight = Ring.create ();
      on_tx_done = ignore;
      on_deliver = ignore;
      handoff = None;
      bg_slowdown = 1.;
      arrival_listeners = [];
      drop_listeners = [];
      depart_listeners = [];
      arrivals = 0;
      drops = 0;
      departures = 0;
      bytes_delivered = 0;
    }
  in
  t.on_tx_done <- (fun () -> tx_done t);
  t.on_deliver <- (fun () -> deliver_head t);
  t

(* A packet just queued starts at once on an idle link, and on a link
   still serializing schedules the end event it now waits for. *)
let admit t =
  if not t.busy then
    if Scheduler.turn_passed t.sched t.free_at t.end_turn then start t
    else end_event t

(* The link owns every drop: the packet is freed here, after the drop
   listeners have seen it, so monitors and the recorder read live fields. *)
let send t h =
  let now = Scheduler.now t.sched in
  t.arrivals <- t.arrivals + 1;
  notify t.arrival_listeners now h;
  match Queue_disc.enqueue t.queue ~now h with
  | `Dropped ->
      t.drops <- t.drops + 1;
      notify t.drop_listeners now h;
      Packet_pool.free t.pool h
  | `Enqueued -> admit t
  | `Enqueued_dropping victim ->
      (* SFQ admitted the arrival but pushed out another flow's packet. *)
      t.drops <- t.drops + 1;
      notify t.drop_listeners now victim;
      Packet_pool.free t.pool victim;
      admit t

let set_handoff t f = t.handoff <- Some f

let set_bg_slowdown t f =
  if not (Float.is_finite f) || f < 1. then
    invalid_arg "Link.set_bg_slowdown: factor < 1";
  t.bg_slowdown <- f

let queue_length t = Queue_disc.length t.queue

let queue_disc t = t.queue

let queue_high_water_mark t = Queue_disc.high_water_mark t.queue

let on_arrival t f = t.arrival_listeners <- f :: t.arrival_listeners

let on_drop t f = t.drop_listeners <- f :: t.drop_listeners

let on_depart t f = t.depart_listeners <- f :: t.depart_listeners

let arrivals t = t.arrivals

let drops t = t.drops

let departures t = t.departures

let bytes_delivered t = t.bytes_delivered

let name t = t.name

let reclaim t =
  let rec drain () =
    let h = Queue_disc.dequeue t.queue ~now:(Scheduler.now t.sched) in
    if not (Packet_pool.is_nil h) then begin
      Packet_pool.free t.pool h;
      drain ()
    end
  in
  drain ();
  while not (Ring.is_empty t.in_flight) do
    Packet_pool.free t.pool (Ring.pop_exn t.in_flight)
  done;
  t.busy <- false

(* One fixed-width record per arrival, drop and departure; the listeners
   only do integer loads and stores. *)
let record t recorder =
  let lane = Telemetry.Recorder.lane recorder 0 in
  let sid = Telemetry.Recorder.intern recorder t.name in
  let pool = t.pool in
  (* Eta-expanded per-hook listeners: a partially-applied closure would
     route every call through the generic currying path, and these three
     fire for most events of a recorded run. *)
  let packet_record kind now h =
    let slot = Packet_pool.slot_exn pool h in
    Telemetry.Recorder.record lane ~tick:(Time.to_ns now) ~kind
      ~flow:(Packet_pool.flow_at pool slot)
      ~a:(Packet_pool.uid_at pool slot)
      ~b:(Packet_pool.size_bytes_at pool slot)
      ~c:(Packet_pool.data_seq_at pool slot ~default:Telemetry.Record.no_seq)
      ~sid
      ~depth:(Queue_disc.length t.queue)
  in
  on_arrival t (fun now h -> packet_record Telemetry.Record.packet_arrival now h);
  on_drop t (fun now h -> packet_record Telemetry.Record.packet_drop now h);
  on_depart t (fun now h -> packet_record Telemetry.Record.packet_depart now h)
