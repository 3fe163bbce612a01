module Time = Sim_engine.Time
module Scheduler = Sim_engine.Scheduler

let arrival_binner pool link ~origin ~width =
  let binned = Netstats.Binned.create ~origin ~width () in
  Link.on_arrival link (fun now h ->
      if Packet_pool.is_data pool h then
        Netstats.Binned.record binned (Time.to_sec now));
  binned

(* Streaming twin of [arrival_binner]: the same events, folded straight
   into a dyadic aggregator instead of a stored bin array. Gated by the
   caller (only wired when a probe asked for burst telemetry), so runs
   without a subscriber pay nothing. *)
let arrival_burst pool link burst =
  Link.on_arrival link (fun now h ->
      if Packet_pool.is_data pool h then
        (* observe_tick keeps the tick->seconds conversion internal and
           unboxed; [Burst.observe (Time.to_sec now)] would box a float
           per arrival. *)
        Telemetry.Burst.observe_tick burst (Time.to_ns now))

(* Periodic feed for the oscillation detector. Samples before [from]
   (the warm-up) are skipped but the timer keeps its cadence from time
   zero, so sample times are deterministic. A sample allocates nothing:
   the time crosses calls as an integer tick, the value through one
   reused cell, and the warm-up test repeats [Time.to_sec]'s arithmetic
   locally rather than taking the boxed float it returns. *)
let osc_sampler sched osc ~signal ~every ~from ~until =
  let cell = [| 0. |] in
  let rec tick () =
    let now = Scheduler.now sched in
    if Time.(now <= until) then begin
      if float_of_int (Time.to_ns now) /. 1e9 >= from then begin
        signal cell;
        Telemetry.Burst.Osc.sample osc ~tick:(Time.to_ns now) cell
      end;
      ignore (Scheduler.after sched every tick)
    end
  in
  ignore (Scheduler.after sched Time.zero tick)

let queue_sampler sched link ~every ~until =
  let series = Netstats.Series.create () in
  let rec tick () =
    let now = Scheduler.now sched in
    if Time.(now <= until) then begin
      Netstats.Series.add series (Time.to_sec now)
        (float_of_int (Link.queue_length link));
      ignore (Scheduler.after sched every tick)
    end
  in
  ignore (Scheduler.after sched Time.zero tick);
  series

let drop_run_recorder link =
  let runs = ref [] and run = ref 0 and dropped_since_arrival = ref false in
  Link.on_arrival link (fun _ _ ->
      (* The previous arrival was accepted: any open run has ended. *)
      if (not !dropped_since_arrival) && !run > 0 then begin
        runs := !run :: !runs;
        run := 0
      end;
      dropped_since_arrival := false);
  Link.on_drop link (fun _ _ ->
      incr run;
      dropped_since_arrival := true);
  fun () ->
    let all = if !run > 0 then !run :: !runs else !runs in
    List.rev all
