(* Closed-form reference values, and reference models, the simulator
   tests compare against. They live here, not in the library, because
   nothing else calls them. *)

(* Index of dispersion for counts at block size [m]: Var(X^(m)) /
   E(X^(m)), where X^(m) sums [xs] over non-overlapping blocks of [m]
   (a trailing partial block is dropped). Poisson counts give 1 at
   every [m]. Raises [Invalid_argument] on fewer than two blocks or a
   zero blocked mean. *)
let idc xs m =
  if m < 1 then invalid_arg "Oracle.idc: m < 1";
  let blocks =
    Array.init (Array.length xs / m) (fun i ->
        let s = ref 0. in
        for j = 0 to m - 1 do
          s := !s +. xs.((i * m) + j)
        done;
        !s)
  in
  if Array.length blocks < 2 then invalid_arg "Oracle.idc: too few blocks";
  let s = Netstats.Summary.of_array blocks in
  if s.Netstats.Summary.mean = 0. then invalid_arg "Oracle.idc: zero mean";
  s.Netstats.Summary.variance /. s.Netstats.Summary.mean

(* Mean number in an M/D/1 system (Pollaczek-Khinchine with service
   cv^2 = 0): rho + rho^2 / (2 (1 - rho)), for 0 <= rho < 1. *)
let md1_mean_queue ~rho =
  if rho < 0. || rho >= 1. then invalid_arg "Oracle.md1_mean_queue: rho";
  rho +. (rho *. rho /. (2. *. (1. -. rho)))

(* The RFC 6298 retransmission timer in float seconds, as the TCP sender
   runs it: samples quantized to the clock granularity G; SRTT and RTTVAR
   with alpha = 1/8, beta = 1/4, RTTVAR updated from the previous SRTT;
   RTO = SRTT + max (G, 4 RTTVAR), or the initial RTO before the first
   sample; times a backoff multiplier that doubles per expiry up to 64
   and resets on a new sample or ACK; clamped into [min_rto, max_rto]. *)
type rto = { srtt : float option; rttvar : float; backoff : float }

let rto_init = { srtt = None; rttvar = 0.; backoff = 1. }

let rto_sample ~granularity st sample =
  let m = Float.round (sample /. granularity) *. granularity in
  match st.srtt with
  | None -> { srtt = Some m; rttvar = m /. 2.; backoff = 1. }
  | Some s ->
      {
        srtt = Some ((0.875 *. s) +. (0.125 *. m));
        rttvar = (0.75 *. st.rttvar) +. (0.25 *. Float.abs (s -. m));
        backoff = 1.;
      }

let rto_backoff st = { st with backoff = Float.min 64. (2. *. st.backoff) }

let rto_reset st = { st with backoff = 1. }

let rto_seconds ~granularity ~min_rto ~max_rto ~initial_rto st =
  let base =
    match st.srtt with
    | None -> initial_rto
    | Some s -> s +. Float.max granularity (4. *. st.rttvar)
  in
  Float.min max_rto (Float.max min_rto (base *. st.backoff))

(* The flight recorder's word layout, byte by byte: 64-bit
   little-endian two's complement, the value sign-extended from OCaml's
   63 bits, so [get64] truncates it back exactly. [Record.set_word] and
   [Record.get_word] must agree with these on every int. *)
let put64 b pos v =
  for i = 0 to 7 do
    Bytes.set b (pos + i) (Char.chr ((v asr (8 * i)) land 0xff))
  done

let get64 b pos =
  let v = ref 0L in
  for i = 7 downto 0 do
    v :=
      Int64.logor (Int64.shift_left !v 8)
        (Int64.of_int (Char.code (Bytes.get b (pos + i))))
  done;
  Int64.to_int !v

(* The two-event link that [Netsim.Link] replaced, as the reference its
   lazy serialization ends must match: every serialization end is an
   event, scheduled when the serialization starts, and that event
   schedules the delivery [delay] later and starts the next packet.
   Handoff, background slowdown, statistics and the recorder are left
   out, since none of them changes when an end or a delivery fires;
   listeners are one callback each. *)
module Link = struct
  module Time = Sim_engine.Time
  module Scheduler = Sim_engine.Scheduler
  module Pool = Netsim.Packet_pool
  module Queue_disc = Netsim.Queue_disc

  type t = {
    sched : Scheduler.t;
    bandwidth : Netsim.Units.bandwidth;
    delay : Time.span;
    queue : Queue_disc.t;
    pool : Pool.t;
    deliver : Pool.handle -> unit;
    on_arrival : Time.t -> Pool.handle -> unit;
    on_drop : Time.t -> Pool.handle -> unit;
    mutable busy : bool;
    in_flight : Netsim.Ring.t;
  }

  let create sched ~bandwidth ~delay ~queue ~pool ~on_arrival ~on_drop ~deliver =
    {
      sched;
      bandwidth;
      delay;
      queue;
      pool;
      deliver;
      on_arrival;
      on_drop;
      busy = false;
      in_flight = Netsim.Ring.create ();
    }

  let rec try_transmit t =
    if not t.busy then begin
      let h = Queue_disc.dequeue t.queue ~now:(Scheduler.now t.sched) in
      if not (Pool.is_nil h) then begin
        t.busy <- true;
        Netsim.Ring.push t.in_flight h;
        let tx = Netsim.Units.transmission_time t.bandwidth ~bytes:(Pool.size_bytes t.pool h) in
        ignore (Scheduler.after t.sched tx (fun () -> tx_done t))
      end
    end

  and tx_done t =
    t.busy <- false;
    ignore
      (Scheduler.after t.sched t.delay (fun () ->
           t.deliver (Netsim.Ring.pop_exn t.in_flight)));
    try_transmit t

  let send t h =
    let now = Scheduler.now t.sched in
    t.on_arrival now h;
    match Queue_disc.enqueue t.queue ~now h with
    | `Dropped ->
        t.on_drop now h;
        Pool.free t.pool h
    | `Enqueued -> try_transmit t
    | `Enqueued_dropping victim ->
        t.on_drop now victim;
        Pool.free t.pool victim;
        try_transmit t
end
