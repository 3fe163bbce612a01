type t = {
  q : Ring.t;
  capacity : int;
  mutable hwm : int;
  (* Optional flight-recorder wiring (set post-construction): records
     the discipline's forced-drop decisions with queue-name attribution,
     which link-level drop counts cannot provide. *)
  mutable rlane : Telemetry.Recorder.lane option;
  mutable rsid : int;
  mutable rpool : Packet_pool.t option;
  (* Optional smoothed-occupancy estimate (RED [w_q] semantics, sampled
     per arrival). A flat float array — [|avg; w_q|] — so the per-arrival
     update is an unboxed store, not a boxed-float mutation. [w_q = 0.]
     means disabled — the default, so the hot path pays one float
     compare. *)
  ewma : float array;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Droptail.create: capacity < 1";
  {
    q = Ring.create ();
    capacity;
    hwm = 0;
    rlane = None;
    rsid = 0;
    rpool = None;
    ewma = Array.make 2 0.;
  }

let enable_avg t ~w_q =
  if w_q <= 0. || w_q > 1. then invalid_arg "Droptail.enable_avg: bad w_q";
  t.ewma.(1) <- w_q

let avg_into t cell = cell.(0) <- t.ewma.(0)

let set_recorder t ~recorder ~pool ~name =
  t.rlane <- Some (Telemetry.Recorder.lane recorder 0);
  t.rsid <- Telemetry.Recorder.intern recorder name;
  t.rpool <- Some pool

let record_drop t now h =
  match (t.rlane, t.rpool) with
  | Some lane, Some pool ->
      (* The queue "average" of a drop-tail gateway is its instantaneous
         length. *)
      let bits = Telemetry.Record.bits_of_nonneg_int (Ring.length t.q) in
      Telemetry.Recorder.record lane ~tick:now
        ~kind:Telemetry.Record.queue_forced_drop
        ~flow:(Packet_pool.flow pool h) ~a:(Packet_pool.uid pool h)
        ~b:(bits lsr 32) ~c:(bits land 0xFFFF_FFFF)
        ~sid:t.rsid ~depth:(Ring.length t.q)
  | _ -> ()

let enqueue ~now t h =
  let w_q = t.ewma.(1) in
  if w_q > 0. then
    t.ewma.(0) <-
      ((1. -. w_q) *. t.ewma.(0))
      +. (w_q *. float_of_int (Ring.length t.q));
  if Ring.length t.q >= t.capacity then begin
    record_drop t now h;
    `Dropped
  end
  else begin
    Ring.push t.q h;
    if Ring.length t.q > t.hwm then t.hwm <- Ring.length t.q;
    `Enqueued
  end

let dequeue t = if Ring.is_empty t.q then Packet_pool.nil else Ring.pop_exn t.q

let length t = Ring.length t.q

let capacity t = t.capacity

let high_water_mark t = t.hwm
