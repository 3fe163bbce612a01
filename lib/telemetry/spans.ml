(* Lifecycle spans derived from a flight-recorder stream.

   Three span families, all accumulated into log-scale histograms in
   the metric registry:

   - packet sojourn: [packet_arrival] to [packet_depart] on the same
     (link, uid); a [packet_drop] cancels the pending span;
   - RTT samples: the [tcp_rtt] records emitted by senders on
     Karn-valid ACKs;
   - flow phases: durations between [tcp_phase] transitions, labelled
     by the phase being left; spans still open when the stream ends
     are closed at the [run_end] marker (or the last tick seen).

   The accumulator is stream-order-driven and assumes one segment
   (ticks restart between segments): call it once per segment. *)

let sojourn_hist registry =
  Registry.log_histogram registry
    ~help:"Packet sojourn through a recorded link (enqueue to depart)"
    ~lo:1e-5 ~hi:100. ~bins:40 "trace_packet_sojourn_seconds"

let rtt_hist registry =
  Registry.log_histogram registry
    ~help:"Sender RTT samples from the flight recorder" ~lo:1e-3 ~hi:100.
    ~bins:40 "trace_rtt_seconds"

let phase_hist registry p =
  Registry.log_histogram registry
    ~help:"Time spent in each TCP congestion phase"
    ~labels:[ ("phase", Record.phase_label p) ]
    ~lo:1e-4 ~hi:1000. ~bins:40 "trace_phase_seconds"

(* Tables keyed by one int: the key hashes and compares without a call
   into the runtime, where a generic table keyed by the (link, uid)
   tuple paid an allocation, a [caml_hash] and a [compare_val] per
   packet record. *)
module Ints = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash (k : int) = k land max_int
end)

type t = {
  sojourn : Registry.histogram;
  rtt : Registry.histogram;
  phase_hists : Registry.histogram array;
  pending : int Ints.t Ints.t; (* link sid -> packet uid -> arrival tick *)
  phases : (int, int * int) Hashtbl.t;
      (* flow -> (phase, since tick): a generic table on purpose, since
         its iteration order at [close] is the order the still-open spans
         are summed in, and so part of the exposition's bytes *)
  mutable last_tick : int;
  mutable end_tick : int;
}

(* Registration order is exposition order, so it is spelled out in
   sequenced lets: sojourn, RTT, then the phases from the last code to
   the first, the order the exposition has always had. *)
let create registry =
  let sojourn = sojourn_hist registry in
  let rtt = rtt_hist registry in
  let timeout = phase_hist registry Record.phase_timeout in
  let recovery = phase_hist registry Record.phase_recovery in
  let cong_avoid = phase_hist registry Record.phase_cong_avoid in
  let slow_start = phase_hist registry Record.phase_slow_start in
  let phase_hists = [| slow_start; cong_avoid; recovery; timeout |] in
  {
    sojourn;
    rtt;
    phase_hists;
    pending = Ints.create 4;
    phases = Hashtbl.create 64;
    last_tick = 0;
    end_tick = -1;
  }

let observe_phase t p dticks =
  if p >= 0 && p < Array.length t.phase_hists then
    Registry.observe t.phase_hists.(p) (Record.time_of_tick dticks)

(* The pending arrivals of link [sid]. *)
let pending t sid =
  match Ints.find t.pending sid with
  | p -> p
  | exception Not_found ->
      let p = Ints.create 1024 in
      Ints.replace t.pending sid p;
      p

(* sid in off+6 names the link, a in off+3 is the packet uid. *)
let add t buf off =
  let tick = buf.(off) and kind = buf.(off + 1) in
  if tick > t.last_tick then t.last_tick <- tick;
  if kind = Record.packet_arrival then
    Ints.replace (pending t buf.(off + 6)) buf.(off + 3) tick
  else if kind = Record.packet_depart then begin
    let p = pending t buf.(off + 6) and uid = buf.(off + 3) in
    match Ints.find p uid with
    | t0 ->
        Ints.remove p uid;
        Registry.observe t.sojourn (Record.time_of_tick (tick - t0))
    | exception Not_found -> ()
  end
  else if kind = Record.packet_drop then
    Ints.remove (pending t buf.(off + 6)) buf.(off + 3)
  else if kind = Record.tcp_rtt then
    Registry.observe t.rtt (Record.time_of_tick buf.(off + 3))
  else if kind = Record.tcp_phase then begin
    let flow = buf.(off + 2) and p = buf.(off + 3) in
    (match Hashtbl.find_opt t.phases flow with
    | Some (p0, t0) -> observe_phase t p0 (tick - t0)
    | None -> ());
    Hashtbl.replace t.phases flow (p, tick)
  end
  else if kind = Record.run_end then t.end_tick <- tick

let close t =
  let close = if t.end_tick >= 0 then t.end_tick else t.last_tick in
  Hashtbl.iter
    (fun _flow (p, t0) -> if close > t0 then observe_phase t p (close - t0))
    t.phases

let accumulate ~registry iter =
  let t = create registry in
  iter (fun ~seq:_ buf off -> add t buf off);
  close t

let histograms registry =
  [
    ("packet_sojourn", sojourn_hist registry);
    ("rtt", rtt_hist registry);
    ("phase:slow_start", phase_hist registry Record.phase_slow_start);
    ("phase:cong_avoid", phase_hist registry Record.phase_cong_avoid);
    ("phase:recovery", phase_hist registry Record.phase_recovery);
    ("phase:timeout", phase_hist registry Record.phase_timeout);
  ]

let of_recorder ~registry r = accumulate ~registry (Recorder.iter r)

let of_segment ~registry seg = accumulate ~registry (Recorder.iter_segment seg)
