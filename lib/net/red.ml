type params = {
  min_th : float;
  max_th : float;
  max_p : float;
  w_q : float;
  capacity : int;
  idle_packet_time : float;
  ecn_mark : bool;
  adaptive : bool;
}

type t = {
  p : params;
  q : Ring.t;
  pool : Packet_pool.t;
  rng : Sim_engine.Rng.t;
  (* Optional flight-recorder wiring (set post-construction), as for
     drop-tail and SFQ. *)
  mutable rlane : Telemetry.Recorder.lane option;
  mutable rsid : int;
  mutable avg : float;
  mutable count : int; (* arrivals since the last early drop; -1 = below min_th *)
  mutable idle_since : float; (* when the queue last went empty; nan = busy *)
  mutable max_p : float; (* live value; scaled by the adaptive mode *)
  mutable marks : int;
  mutable last_adapt : float; (* adaptive max_p moves at most every 0.5 s *)
  mutable hwm : int;
  mutable vq : float; (* virtual background backlog (hybrid engine), packets *)
}

let create ~rng ~pool p =
  if p.min_th <= 0. || p.max_th <= p.min_th then invalid_arg "Red.create: bad thresholds";
  if p.max_p <= 0. || p.max_p > 1. then invalid_arg "Red.create: bad max_p";
  if p.w_q <= 0. || p.w_q > 1. then invalid_arg "Red.create: bad w_q";
  if p.capacity < 1 then invalid_arg "Red.create: bad capacity";
  {
    p;
    q = Ring.create ();
    pool;
    rng;
    rlane = None;
    rsid = 0;
    avg = 0.;
    count = -1;
    idle_since = 0.;
    max_p = p.max_p;
    marks = 0;
    last_adapt = 0.;
    hwm = 0;
    vq = 0.;
  }

let set_recorder t ~recorder ~name =
  t.rlane <- Some (Telemetry.Recorder.lane recorder 0);
  t.rsid <- Telemetry.Recorder.intern recorder name

let update_avg t now =
  let qlen = float_of_int (Ring.length t.q) in
  if qlen = 0. && t.vq = 0. && not (Float.is_nan t.idle_since) then begin
    (* Age the average over the idle period as if [m] small packets had
       departed (FJ93 §4). *)
    let idle = Stdlib.max 0. (now -. t.idle_since) in
    let m = idle /. t.p.idle_packet_time in
    t.avg <- t.avg *. ((1. -. t.p.w_q) ** m);
    t.idle_since <- Float.nan
  end;
  (* [vq] is 0. outside the hybrid engine, and [qlen +. 0.] is
     float-identical to [qlen], so the pure-packet stream is untouched. *)
  t.avg <- ((1. -. t.p.w_q) *. t.avg) +. (t.p.w_q *. (qlen +. t.vq));
  (* Self-Configuring RED: steer max_p so the average stays in band,
     adjusting at most once per half second so one congestion episode does
     not slam max_p to a rail. *)
  if t.p.adaptive && now -. t.last_adapt >= 0.5 then begin
    if t.avg < t.p.min_th then begin
      t.max_p <- Stdlib.max 1e-4 (t.max_p /. 3.);
      t.last_adapt <- now
    end
    else if t.avg > t.p.max_th then begin
      t.max_p <- Stdlib.min 0.5 (t.max_p *. 2.);
      t.last_adapt <- now
    end
  end

let accept t h =
  Ring.push t.q h;
  if Ring.length t.q > t.hwm then t.hwm <- Ring.length t.q;
  t.idle_since <- Float.nan;
  `Enqueued

(* Narrate the drop/mark decision: link-level drop counts cannot tell a
   forced drop from an early one, or see marks at all. *)
let emit t tick kind h =
  match t.rlane with
  | None -> ()
  | Some lane ->
      (* The average rides as exact IEEE-754 bits so the decoded event
         carries it unrounded. *)
      Telemetry.Recorder.record lane ~tick ~kind
        ~flow:(Packet_pool.flow t.pool h)
        ~a:(Packet_pool.uid t.pool h)
        ~b:(Telemetry.Record.float_hi t.avg)
        ~c:(Telemetry.Record.float_lo t.avg)
        ~sid:t.rsid
        ~depth:(Ring.length t.q)

let enqueue t ~now h =
  let tick = Sim_engine.Time.to_ns now in
  let now = Sim_engine.Time.to_sec now in
  update_avg t now;
  if Ring.length t.q >= t.p.capacity then begin
    (* Physical overflow: forced drop. *)
    t.count <- 0;
    emit t tick Telemetry.Record.queue_forced_drop h;
    `Dropped
  end
  else if t.avg < t.p.min_th then begin
    t.count <- -1;
    accept t h
  end
  else if t.avg >= t.p.max_th then begin
    t.count <- 0;
    emit t tick Telemetry.Record.queue_forced_drop h;
    `Dropped
  end
  else begin
    t.count <- t.count + 1;
    let pb = t.max_p *. (t.avg -. t.p.min_th) /. (t.p.max_th -. t.p.min_th) in
    let denom = 1. -. (float_of_int t.count *. pb) in
    let pa = if denom <= 0. then 1. else pb /. denom in
    if Sim_engine.Rng.bool t.rng (Stdlib.min 1. pa) then begin
      t.count <- 0;
      if t.p.ecn_mark && Packet_pool.ecn_capable t.pool h then begin
        (* Signal congestion without losing the packet. *)
        Packet_pool.set_ecn_ce t.pool h;
        t.marks <- t.marks + 1;
        emit t tick Telemetry.Record.queue_ecn_mark h;
        accept t h
      end
      else begin
        emit t tick Telemetry.Record.queue_early_drop h;
        `Dropped
      end
    end
    else accept t h
  end

let dequeue t ~now =
  if Ring.is_empty t.q then Packet_pool.nil
  else begin
    let h = Ring.pop_exn t.q in
    if Ring.is_empty t.q then t.idle_since <- Sim_engine.Time.to_sec now;
    h
  end

let set_virtual_queue t v = t.vq <- Stdlib.max 0. v

let virtual_update t ~arrivals:m =
  (* The EWMA pole tracks the arrival rate: with only K of N flows
     physical, the average would respond N/K times too slowly. Fold in
     the [m] background arrivals the fluid model says happened this
     quantum, each sampling the combined (physical + virtual) depth —
     the closed form of [m] successive [update_avg] samples at a frozen
     depth. Deterministic; no RNG draw. *)
  if m > 0. then begin
    let depth = float_of_int (Ring.length t.q) +. t.vq in
    let keep = (1. -. t.p.w_q) ** m in
    t.avg <- (t.avg *. keep) +. (depth *. (1. -. keep));
    t.idle_since <- Float.nan
  end

let length t = Ring.length t.q

let avg t = t.avg

let marks t = t.marks

let current_max_p t = t.max_p

let high_water_mark t = t.hwm
