type handle = Event_queue.handle

let nil = Event_queue.nil

let is_nil = Event_queue.is_nil

type t = {
  queue : Event_queue.t;
  clock : Event_queue.clock; (* the queue's drain state: now, stop flag, count *)
  (* Drain-boundary instrumentation: called once per [run], not per
     event, so arbitrary observers (the flight recorder's run markers)
     cost nothing on the datapath. *)
  mutable on_run_start : Time.t -> unit;
  mutable on_run_end : Time.t -> int -> unit;
}

let create ?queue_capacity () =
  let queue = Event_queue.create ?capacity:queue_capacity () in
  {
    queue;
    clock = Event_queue.clock queue;
    on_run_start = ignore;
    on_run_end = (fun _ _ -> ());
  }

let now t = t.clock.now

let at t when_ action =
  if Time.to_ns when_ < Time.to_ns t.clock.now then
    invalid_arg "Scheduler.at: time in the past";
  Event_queue.schedule t.queue when_ action

let after t delay action = at t (Time.add t.clock.now delay) action

let at_keyed t when_ f key =
  if Time.to_ns when_ < Time.to_ns t.clock.now then
    invalid_arg "Scheduler.at_keyed: time in the past";
  Event_queue.schedule_keyed t.queue when_ f key

let after_keyed t delay f key = at_keyed t (Time.add t.clock.now delay) f key

let cancel t handle = Event_queue.cancel t.queue handle

let stop t = t.clock.stopped <- true

let set_instrument t ~on_run_start ~on_run_end =
  t.on_run_start <- on_run_start;
  t.on_run_end <- on_run_end

let run ?until t =
  let c = t.clock in
  c.stopped <- false;
  t.on_run_start c.now;
  let fired_before = c.fired in
  Event_queue.drain t.queue
    (match until with Some u -> u | None -> Time.never);
  (match until with
  | Some u when (not c.stopped) && Time.(c.now < u) -> c.now <- u
  | _ -> ());
  t.on_run_end c.now (c.fired - fired_before)

let events_processed t = t.clock.fired

let pending t = Event_queue.length t.queue

let queue_high_water_mark t = Event_queue.high_water_mark t.queue

let queue_capacity t = Event_queue.capacity t.queue

let queue_growths t = Event_queue.growth_count t.queue

let queue_wheel_parked t = Event_queue.wheel_parked t.queue
