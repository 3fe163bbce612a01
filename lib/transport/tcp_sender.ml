module Time = Sim_engine.Time
module Scheduler = Sim_engine.Scheduler
module Eq = Sim_engine.Event_queue
module Pool = Netsim.Packet_pool
module Ft = Netsim.Flow_table
module L = Flow_layout

(* All per-flow state lives in rows of a {!Netsim.Flow_table} (layout in
   {!Flow_layout}); a [group] holds everything the flows share — the
   scheduler, the packet pool, the CC/RTO parameters, the telemetry
   sinks, and exactly two keyed timer callbacks — so adding a flow
   allocates one table row and nothing else. A {!t} is a cheap
   (group, generation-checked handle) pair.

   The direct-mapped send-time cells are [lnot]-encoded when the segment
   was retransmitted: clean (non-negative) entries may be RTT-sampled
   (Karn's rule); [min_int] = empty. The SACK scoreboard (sequences the
   receiver reports holding, RFC 2018) and the retransmitted-in-recovery
   set (each hole resent once per recovery, RFC 3517-lite) are bitsets
   over the same [seq land mask] addressing. *)

type group = {
  sched : Scheduler.t;
  pool : Pool.t;
  table : Ft.t;
  ctx : Cc.ctx;
  uses_fast_recovery : bool;
  partial_ack_stays : bool;
  rto_p : Rto.params;
  initial_ssthresh : float;
  mss_bytes : int;
  adv_window : int;
  st_size : int;
  st_mask : int;
  sb_off : int; (* scoreboard bitset offset within the row *)
  rtx_off : int; (* retransmitted-in-recovery bitset offset *)
  row_ints : int;
  row_floats : int;
  ecn_capable : bool option; (* boxed once: passed on every data segment *)
  sack_enabled : bool;
  cwnd_validation : bool;
  pacing : bool;
  rlane : Telemetry.Recorder.lane option;
  r_lifecycle : bool;
  transmit : flow:int -> Pool.handle -> unit;
  (* Rewritten in place for every ACK; see {!Cc.ack_info}. *)
  info : Cc.ack_info;
  (* Only flows a figure actually plots carry a trace; the shared empty
     series answers for everyone else. *)
  traces : (int, Netstats.Series.t) Hashtbl.t;
  empty_trace : Netstats.Series.t;
  (* The group's two preallocated timer actions, keyed by slot:
     re-arming per ACK must not build an option or a closure. *)
  mutable on_rto : int -> unit;
  mutable on_pace : int -> unit;
}

type t = { g : group; h : Ft.handle }

let nil_i = Eq.int_of_handle Scheduler.nil

let never_ns = Time.to_ns Time.never

let now_sec g = Time.to_sec (Scheduler.now g.sched)

(* ------------------------------------------------------------------ *)
(* Bitset cells: 32 seqs per word, [1 lsl (i land 31)] stays clear of
   the int's sign bit. *)

let bit_mem (iv : int array) base idx =
  iv.(base + (idx lsr 5)) land (1 lsl (idx land 31)) <> 0

(* Set; true when the bit was clear (population changed). *)
let bit_set (iv : int array) base idx =
  let w = base + (idx lsr 5) in
  let m = 1 lsl (idx land 31) in
  let old = iv.(w) in
  if old land m = 0 then begin
    iv.(w) <- old lor m;
    true
  end
  else false

(* Clear; true when the bit was set. *)
let bit_clear (iv : int array) base idx =
  let w = base + (idx lsr 5) in
  let m = 1 lsl (idx land 31) in
  let old = iv.(w) in
  if old land m <> 0 then begin
    iv.(w) <- old land lnot m;
    true
  end
  else false

(* ------------------------------------------------------------------ *)
(* Telemetry *)

(* The trace costs boxed floats per ACK, so it is recorded only for the
   clients a figure actually plots. *)
let record_cwnd g slot =
  let iv = Ft.ints g.table in
  if iv.((slot * g.row_ints) + L.si_flags) land L.fl_trace <> 0 then
    Netstats.Series.add
      (Hashtbl.find g.traces slot)
      (now_sec g)
      (Ft.floats g.table).((slot * g.row_floats) + L.f_cwnd)

(* Record a congestion decision; [cwnd] is read after the reaction. *)
let record_tcp g slot kind =
  match g.rlane with
  | None -> ()
  | Some lane ->
      let cwnd = (Ft.floats g.table).((slot * g.row_floats) + L.f_cwnd) in
      Telemetry.Recorder.record lane
        ~tick:(Time.to_ns (Scheduler.now g.sched))
        ~kind
        ~flow:(Ft.ints g.table).((slot * g.row_ints) + L.si_flow)
        ~a:0
        ~b:(Telemetry.Record.float_hi cwnd)
        ~c:(Telemetry.Record.float_lo cwnd)
        ~sid:0 ~depth:0

(* Lifecycle phase spans. Recomputed per ACK while outside steady
   congestion avoidance, so every branch must stay allocation-free. *)
let compute_phase g slot =
  let flags = (Ft.ints g.table).((slot * g.row_ints) + L.si_flags) in
  if flags land L.fl_in_recovery <> 0 then Telemetry.Record.phase_recovery
  else if flags land L.fl_timed_out <> 0 then Telemetry.Record.phase_timeout
  else if Cc.in_slow_start (Ft.floats g.table) (slot * g.row_floats) then
    Telemetry.Record.phase_slow_start
  else Telemetry.Record.phase_cong_avoid

let note_phase g slot =
  match g.rlane with
  | Some lane when g.r_lifecycle ->
      let p = compute_phase g slot in
      let iv = Ft.ints g.table in
      let fi = (slot * g.row_ints) + L.si_flags in
      let prev = ((iv.(fi) lsr L.fl_phase_shift) land L.fl_phase_mask) - 1 in
      if p <> prev then begin
        iv.(fi) <-
          iv.(fi)
          land lnot (L.fl_phase_mask lsl L.fl_phase_shift)
          lor ((p + 1) lsl L.fl_phase_shift);
        let cwnd = (Ft.floats g.table).((slot * g.row_floats) + L.f_cwnd) in
        Telemetry.Recorder.record lane
          ~tick:(Time.to_ns (Scheduler.now g.sched))
          ~kind:Telemetry.Record.tcp_phase
          ~flow:iv.((slot * g.row_ints) + L.si_flow)
          ~a:p
          ~b:(Telemetry.Record.float_hi cwnd)
          ~c:(Telemetry.Record.float_lo cwnd)
          ~sid:0 ~depth:0
      end
  | _ -> ()

let record_rtt g slot rtt_ns =
  match g.rlane with
  | Some lane when g.r_lifecycle ->
      (* Integer payload only: this fires on every clean ACK and must
         not allocate. *)
      Telemetry.Recorder.record lane
        ~tick:(Time.to_ns (Scheduler.now g.sched))
        ~kind:Telemetry.Record.tcp_rtt
        ~flow:(Ft.ints g.table).((slot * g.row_ints) + L.si_flow)
        ~a:rtt_ns ~b:0 ~c:0 ~sid:0 ~depth:0
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Window accounting *)

let window g slot =
  let c = (Ft.floats g.table).((slot * g.row_floats) + L.f_cwnd) in
  let w = int_of_float c in
  let w = if w < g.adv_window then w else g.adv_window in
  if w < 1 then 1 else w

let gflight (iv : int array) b = iv.(b + L.si_next_seq) - iv.(b + L.si_snd_una)

let gbacklog (iv : int array) b =
  iv.(b + L.si_app_submitted) - iv.(b + L.si_next_seq)

(* Conservative estimate of data still in the network: outstanding minus
   what the receiver reports holding. *)
let gpipe (iv : int array) b = gflight iv b - iv.(b + L.si_sacked)

(* ------------------------------------------------------------------ *)
(* Timers and transmission *)

let cancel_rto g slot =
  let iv = Ft.ints g.table in
  let ti = (slot * g.row_ints) + L.si_rto_timer in
  if iv.(ti) <> nil_i then begin
    Scheduler.cancel g.sched (Eq.handle_of_int iv.(ti));
    iv.(ti) <- nil_i
  end

let cancel_pace g slot =
  let iv = Ft.ints g.table in
  let ti = (slot * g.row_ints) + L.si_pace_timer in
  if iv.(ti) <> nil_i then begin
    Scheduler.cancel g.sched (Eq.handle_of_int iv.(ti));
    iv.(ti) <- nil_i
  end

let rec arm_rto g slot =
  let iv = Ft.ints g.table in
  let ti = (slot * g.row_ints) + L.si_rto_timer in
  if iv.(ti) = nil_i then begin
    let have =
      iv.((slot * g.row_ints) + L.si_flags) land L.fl_have_rtt <> 0
    in
    let delay =
      Time.of_ns
        (Rto.rto_ns_at g.rto_p (Ft.floats g.table) (slot * g.row_floats)
           ~have_sample:have)
    in
    iv.(ti) <- Eq.int_of_handle (Scheduler.after_keyed g.sched delay g.on_rto slot)
  end

and restart_rto g slot =
  cancel_rto g slot;
  if gflight (Ft.ints g.table) (slot * g.row_ints) > 0 then arm_rto g slot

and send_segment g slot seq =
  let iv = Ft.ints g.table in
  let b = slot * g.row_ints in
  let is_retransmit = seq < iv.(b + L.si_max_sent) in
  let now = Scheduler.now g.sched in
  let p =
    Pool.alloc_data g.pool ?ecn_capable:g.ecn_capable ~flow:iv.(b + L.si_flow)
      ~src:iv.(b + L.si_src) ~dst:iv.(b + L.si_dst) ~size_bytes:g.mss_bytes
      ~sent_at:now ~seq ~is_retransmit ()
  in
  iv.(b + L.si_segments_sent) <- iv.(b + L.si_segments_sent) + 1;
  if is_retransmit then begin
    iv.(b + L.si_retransmits) <- iv.(b + L.si_retransmits) + 1;
    iv.(b + L.sender_ints + (seq land g.st_mask)) <- lnot (Time.to_ns now)
  end
  else begin
    iv.(b + L.sender_ints + (seq land g.st_mask)) <- Time.to_ns now;
    iv.(b + L.si_max_sent) <- seq + 1
  end;
  arm_rto g slot;
  g.transmit ~flow:iv.(b + L.si_flow) p

and try_send g slot = if g.pacing then pace_send g slot else burst_send g slot

and burst_send g slot =
  let b = slot * g.row_ints in
  let continue = ref true in
  while !continue do
    let iv = Ft.ints g.table in
    if gbacklog iv b > 0 && gflight iv b < window g slot then begin
      send_segment g slot iv.(b + L.si_next_seq);
      (Ft.ints g.table).(b + L.si_next_seq) <- iv.(b + L.si_next_seq) + 1
    end
    else continue := false
  done

(* Paced sending (Aggarwal, Savage & Anderson 2000): instead of releasing
   everything the window admits the instant an ACK arrives, new segments
   leave at intervals of srtt/cwnd, spreading each window over the round
   trip. Retransmissions bypass pacing. Before the first RTT sample the
   interval is zero and pacing degenerates to ACK clocking. *)
and pace_send g slot =
  let iv = Ft.ints g.table in
  let b = slot * g.row_ints in
  if iv.(b + L.si_pace_timer) = nil_i then begin
    if gbacklog iv b > 0 && gflight iv b < window g slot then begin
      let fv = Ft.floats g.table in
      let fb = slot * g.row_floats in
      let interval =
        if iv.(b + L.si_flags) land L.fl_have_rtt <> 0 then begin
          let c = fv.(fb + L.f_cwnd) in
          let c = if c > 1. then c else 1. in
          Time.of_sec (fv.(fb + L.f_srtt) /. c)
        end
        else Time.zero
      in
      let now = Scheduler.now g.sched in
      (* Compare in ticks, not re-derived float seconds: the armed
         timer fires at exactly [due], so the send below is taken. *)
      let due =
        if iv.(b + L.si_last_paced) = never_ns then now
        else Time.add (Time.of_ns iv.(b + L.si_last_paced)) interval
      in
      if Time.(due <= now) then begin
        iv.(b + L.si_last_paced) <- Time.to_ns now;
        send_segment g slot iv.(b + L.si_next_seq);
        (Ft.ints g.table).(b + L.si_next_seq) <- iv.(b + L.si_next_seq) + 1;
        pace_send g slot
      end
      else
        iv.(b + L.si_pace_timer) <-
          Eq.int_of_handle (Scheduler.at_keyed g.sched due g.on_pace slot)
    end
  end

(* During SACK recovery the window is governed by [pipe]: fill the lowest
   un-SACKed, not-yet-retransmitted holes first, then new data. A segment
   only counts as a hole when the receiver has SACKed something above it —
   segments above [high_sacked] may simply still be in flight. Returns
   [-1] when there is no hole (no option box on the recovery path). *)
and next_hole g slot =
  let iv = Ft.ints g.table in
  let b = slot * g.row_ints in
  let rec scan seq =
    if seq >= iv.(b + L.si_max_sent) || seq > iv.(b + L.si_high_sacked) then -1
    else if
      bit_mem iv (b + g.sb_off) (seq land g.st_mask)
      || bit_mem iv (b + g.rtx_off) (seq land g.st_mask)
    then scan (seq + 1)
    else seq
  in
  scan iv.(b + L.si_snd_una)

and try_send_sack g slot =
  let b = slot * g.row_ints in
  let progress = ref true in
  while !progress && gpipe (Ft.ints g.table) b < window g slot do
    let hole = next_hole g slot in
    if hole >= 0 then begin
      ignore (bit_set (Ft.ints g.table) (b + g.rtx_off) (hole land g.st_mask));
      send_segment g slot hole
    end
    else begin
      let iv = Ft.ints g.table in
      if gbacklog iv b > 0 then begin
        send_segment g slot iv.(b + L.si_next_seq);
        (Ft.ints g.table).(b + L.si_next_seq) <- iv.(b + L.si_next_seq) + 1
      end
      else progress := false
    end
  done

and on_rto_fire g slot =
  let iv = Ft.ints g.table in
  let b = slot * g.row_ints in
  iv.(b + L.si_rto_timer) <- nil_i;
  if gflight iv b > 0 then begin
    let fv = Ft.floats g.table in
    let fb = slot * g.row_floats in
    iv.(b + L.si_timeouts) <- iv.(b + L.si_timeouts) + 1;
    Rto.backoff_at fv fb;
    Cc.on_timeout g.ctx fv fb ~flight:(gflight iv b);
    record_tcp g slot Telemetry.Record.tcp_timeout;
    record_tcp g slot Telemetry.Record.tcp_cwnd_cut;
    iv.(b + L.si_flags) <-
      (iv.(b + L.si_flags) lor L.fl_timed_out) land lnot L.fl_in_recovery;
    iv.(b + L.si_dup_acks) <- 0;
    (* Pessimistic after a timeout: discard SACK state and go back. *)
    Array.fill iv (b + g.sb_off) (g.rtx_off - g.sb_off) 0;
    Array.fill iv (b + g.rtx_off) (g.rtx_off - g.sb_off) 0;
    iv.(b + L.si_sacked) <- 0;
    iv.(b + L.si_high_sacked) <- -1;
    (* Go-back-N: resend from the ACK point as the (now tiny) window
       allows; send_segment re-arms the timer with the backed-off RTO. *)
    iv.(b + L.si_next_seq) <- iv.(b + L.si_snd_una);
    try_send g slot;
    record_cwnd g slot;
    note_phase g slot
  end

(* Clean RTT sample for the segment [ack] covers, in integer ns;
   negative when the slot is empty or the segment was retransmitted. *)
let rtt_sample_ns g slot ack =
  let iv = Ft.ints g.table in
  let sent = iv.((slot * g.row_ints) + L.sender_ints + ((ack - 1) land g.st_mask)) in
  if sent >= 0 then Time.to_ns (Scheduler.now g.sched) - sent else -1

let forget_acked g slot ack =
  let iv = Ft.ints g.table in
  let b = slot * g.row_ints in
  for seq = iv.(b + L.si_snd_una) to ack - 1 do
    iv.(b + L.sender_ints + (seq land g.st_mask)) <- min_int;
    if g.sack_enabled then begin
      if bit_clear iv (b + g.sb_off) (seq land g.st_mask) then
        iv.(b + L.si_sacked) <- iv.(b + L.si_sacked) - 1;
      ignore (bit_clear iv (b + g.rtx_off) (seq land g.st_mask))
    end
  done

let record_sack_blocks g slot blocks =
  if g.sack_enabled then begin
    let iv = Ft.ints g.table in
    let b = slot * g.row_ints in
    List.iter
      (fun (first, last) ->
        let lo = Stdlib.max first iv.(b + L.si_snd_una) in
        let hi = Stdlib.min last (iv.(b + L.si_max_sent)) - 1 in
        for seq = lo to hi do
          if bit_set iv (b + g.sb_off) (seq land g.st_mask) then
            iv.(b + L.si_sacked) <- iv.(b + L.si_sacked) + 1;
          if seq > iv.(b + L.si_high_sacked) then
            iv.(b + L.si_high_sacked) <- seq
        done)
      blocks
  end

let on_new_ack g slot ack =
  let iv = Ft.ints g.table in
  let b = slot * g.row_ints in
  let fv = Ft.floats g.table in
  let fb = slot * g.row_floats in
  let newly = ack - iv.(b + L.si_snd_una) in
  let flight_before = gflight iv b in
  (* RFC 2861 congestion-window validation: when the application (not the
     window) limited sending, do not grow a window that was never used.
     Reported as zero newly-acked segments so the AIMD rules stand still. *)
  let window_limited = flight_before >= window g slot in
  let growth_credit =
    if g.cwnd_validation && not window_limited then 0 else newly
  in
  let in_recovery = iv.(b + L.si_flags) land L.fl_in_recovery <> 0 in
  (* No sampling during recovery, even from never-retransmitted segments:
     their cumulative ACK was delayed by the hole in front of them, so the
     measurement reflects the loss episode, not the path (Karn's rule
     extended the way BSD's timed-segment scheme behaves in practice). *)
  let rtt_ns = if in_recovery then -1 else rtt_sample_ns g slot ack in
  if rtt_ns >= 0 then begin
    let first = iv.(b + L.si_flags) land L.fl_have_rtt = 0 in
    Rto.observe_ns_at g.rto_p fv fb ~first rtt_ns;
    if first then iv.(b + L.si_flags) <- iv.(b + L.si_flags) lor L.fl_have_rtt;
    record_rtt g slot rtt_ns
  end;
  iv.(b + L.si_flags) <- iv.(b + L.si_flags) land lnot L.fl_timed_out;
  forget_acked g slot ack;
  iv.(b + L.si_segments_acked) <- iv.(b + L.si_segments_acked) + newly;
  let info = g.info in
  info.Cc.ack <- ack;
  info.Cc.newly_acked <- growth_credit;
  info.Cc.rtt_ns <- rtt_ns;
  info.Cc.flight_before <- flight_before;
  iv.(b + L.si_snd_una) <- ack;
  if iv.(b + L.si_next_seq) < ack then iv.(b + L.si_next_seq) <- ack;
  if in_recovery then begin
    if ack > iv.(b + L.si_recover) then begin
      Cc.on_full_ack g.ctx fv fb info;
      iv.(b + L.si_flags) <- iv.(b + L.si_flags) land lnot L.fl_in_recovery;
      iv.(b + L.si_dup_acks) <- 0;
      Array.fill iv (b + g.rtx_off) (g.rtx_off - g.sb_off) 0
    end
    else if g.sack_enabled then begin
      Cc.on_partial_ack g.ctx fv fb info;
      (* The scoreboard decides what to resend; no blind head retransmit. *)
      try_send_sack g slot
    end
    else if g.partial_ack_stays then begin
      Cc.on_partial_ack g.ctx fv fb info;
      (* Retransmit the next hole immediately (NewReno). *)
      send_segment g slot iv.(b + L.si_snd_una)
    end
    else begin
      (* Classic Reno: any advancing ACK ends recovery. *)
      Cc.on_full_ack g.ctx fv fb info;
      iv.(b + L.si_flags) <- iv.(b + L.si_flags) land lnot L.fl_in_recovery;
      iv.(b + L.si_dup_acks) <- 0
    end
  end
  else begin
    Cc.on_new_ack g.ctx fv fb info;
    iv.(b + L.si_dup_acks) <- 0
  end;
  Rto.reset_backoff_at fv fb;
  restart_rto g slot;
  try_send g slot;
  record_cwnd g slot;
  (* In steady congestion avoidance an ACK cannot change the phase;
     everywhere else (slow start, recovery, post-timeout) it can. *)
  let prev =
    ((iv.(b + L.si_flags) lsr L.fl_phase_shift) land L.fl_phase_mask) - 1
  in
  if prev <> Telemetry.Record.phase_cong_avoid then note_phase g slot

let on_dup_ack g slot =
  let iv = Ft.ints g.table in
  let b = slot * g.row_ints in
  let fv = Ft.floats g.table in
  let fb = slot * g.row_floats in
  iv.(b + L.si_dup_acks_stat) <- iv.(b + L.si_dup_acks_stat) + 1;
  if iv.(b + L.si_flags) land L.fl_in_recovery <> 0 then begin
    Cc.dup_ack_inflate g.ctx fv fb;
    if g.sack_enabled then try_send_sack g slot else try_send g slot
  end
  else begin
    iv.(b + L.si_dup_acks) <- iv.(b + L.si_dup_acks) + 1;
    if iv.(b + L.si_dup_acks) = 3 then begin
      iv.(b + L.si_fast_retransmits) <- iv.(b + L.si_fast_retransmits) + 1;
      Cc.enter_recovery g.ctx fv fb ~flight:(gflight iv b);
      record_tcp g slot Telemetry.Record.tcp_fast_retransmit;
      record_tcp g slot Telemetry.Record.tcp_cwnd_cut;
      if g.uses_fast_recovery then begin
        iv.(b + L.si_flags) <- iv.(b + L.si_flags) lor L.fl_in_recovery;
        iv.(b + L.si_recover) <- iv.(b + L.si_max_sent) - 1
      end
      else
        (* Tahoe: restart from the ACK point in slow start. *)
        iv.(b + L.si_next_seq) <- iv.(b + L.si_snd_una) + 1;
      if g.sack_enabled then begin
        Array.fill iv (b + g.rtx_off) (g.rtx_off - g.sb_off) 0;
        (* The first retransmission is unconditional (RFC 6675 S5 step 4.1):
           pipe usually still exceeds the halved window here. *)
        let hole = next_hole g slot in
        let first = if hole >= 0 then hole else iv.(b + L.si_snd_una) in
        ignore (bit_set iv (b + g.rtx_off) (first land g.st_mask));
        send_segment g slot first;
        try_send_sack g slot
      end
      else begin
        send_segment g slot iv.(b + L.si_snd_una);
        try_send g slot
      end;
      restart_rto g slot;
      note_phase g slot
    end
  end;
  record_cwnd g slot

(* React to an ECE echo at most once per RTT: halving repeatedly within
   one window's feedback would over-correct (RFC 3168 §6.1.2 semantics). *)
let on_ece g slot =
  let iv = Ft.ints g.table in
  let b = slot * g.row_ints in
  let fv = Ft.floats g.table in
  let fb = slot * g.row_floats in
  let now = now_sec g in
  if
    now >= fv.(fb + L.f_ecn_holdoff)
    && gflight iv b > 0
    && iv.(b + L.si_flags) land L.fl_in_recovery = 0
  then begin
    iv.(b + L.si_ecn_reactions) <- iv.(b + L.si_ecn_reactions) + 1;
    Cc.on_ecn g.ctx fv fb ~flight:(gflight iv b);
    record_tcp g slot Telemetry.Record.tcp_ecn_reaction;
    record_tcp g slot Telemetry.Record.tcp_cwnd_cut;
    let rtt =
      if iv.(b + L.si_flags) land L.fl_have_rtt <> 0 then fv.(fb + L.f_srtt)
      else 1.0
    in
    fv.(fb + L.f_ecn_holdoff) <- now +. rtt;
    record_cwnd g slot;
    note_phase g slot
  end

let handle_packet_slot g slot h =
  match Pool.kind g.pool h with
  | Pool.Tcp_ack ->
      let iv = Ft.ints g.table in
      let b = slot * g.row_ints in
      iv.(b + L.si_acks_received) <- iv.(b + L.si_acks_received) + 1;
      if g.sack_enabled then record_sack_blocks g slot (Pool.sack g.pool h);
      if Pool.ece g.pool h then on_ece g slot;
      let ack = Pool.ack g.pool h in
      let iv = Ft.ints g.table in
      if ack > iv.(b + L.si_snd_una) then on_new_ack g slot ack
      else if ack = iv.(b + L.si_snd_una) && gflight iv b > 0 then
        on_dup_ack g slot
  | Pool.Tcp_data | Pool.Udp_data -> ()

(* ------------------------------------------------------------------ *)
(* Group lifecycle *)

let create_group ?(ecn_capable = false) ?(sack = false)
    ?(cwnd_validation = false) ?(pacing = false) ?recorder ?vegas
    ?(capacity = 16) sched ~pool ~cc ~rto_params ~mss_bytes ~adv_window
    ~transmit =
  if adv_window < 1 then invalid_arg "Tcp_sender.create_group: adv_window < 1";
  if mss_bytes < 1 then invalid_arg "Tcp_sender.create_group: mss_bytes < 1";
  Option.iter
    (fun f -> invalid_arg ("Tcp_sender.create_group: rto_params." ^ f))
    (Rto.bad_field rto_params);
  (* The advertised window is both the window clamp and the initial
     slow-start threshold. *)
  let window = float_of_int adv_window in
  let ctx = Cc.make_ctx ?vegas ~max_window:window cc in
  let rlane = Option.map (fun r -> Telemetry.Recorder.lane r 0) recorder in
  let r_lifecycle =
    match recorder with
    | Some r -> Telemetry.Recorder.lifecycle r
    | None -> false
  in
  let st_size = L.seq_table_size ~adv_window in
  let sb_words = L.bitset_words st_size in
  let sb_off = L.sender_ints + st_size in
  let rtx_off = sb_off + sb_words in
  let row_ints = rtx_off + sb_words in
  let row_floats = Cc.floats_per_flow cc in
  let g =
    {
      sched;
      pool;
      table = Ft.create ~capacity ~ints_per_flow:row_ints
          ~floats_per_flow:row_floats ();
      ctx;
      uses_fast_recovery = Cc.uses_fast_recovery cc;
      partial_ack_stays = Cc.partial_ack_stays cc;
      rto_p = rto_params;
      initial_ssthresh = window;
      mss_bytes;
      adv_window;
      st_size;
      st_mask = st_size - 1;
      sb_off;
      rtx_off;
      row_ints;
      row_floats;
      ecn_capable = Some ecn_capable;
      sack_enabled = sack;
      cwnd_validation;
      pacing;
      rlane;
      r_lifecycle;
      transmit;
      info = Cc.make_ack_info ();
      traces = Hashtbl.create 4;
      empty_trace = Netstats.Series.create ();
      on_rto = ignore;
      on_pace = ignore;
    }
  in
  g.on_rto <- (fun slot -> on_rto_fire g slot);
  g.on_pace <-
    (fun slot ->
      (Ft.ints g.table).((slot * g.row_ints) + L.si_pace_timer) <- nil_i;
      pace_send g slot);
  g

let attach g ~flow ~src ~dst ?(trace_cwnd = false) () =
  let h = Ft.alloc g.table in
  let slot = Ft.slot_of g.table h in
  let iv = Ft.ints g.table in
  let b = slot * g.row_ints in
  iv.(b + L.si_flow) <- flow;
  iv.(b + L.si_src) <- src;
  iv.(b + L.si_dst) <- dst;
  iv.(b + L.si_high_sacked) <- -1;
  iv.(b + L.si_last_paced) <- never_ns;
  iv.(b + L.si_rto_timer) <- nil_i;
  iv.(b + L.si_pace_timer) <- nil_i;
  Array.fill iv (b + L.sender_ints) g.st_size min_int;
  let fv = Ft.floats g.table in
  let fb = slot * g.row_floats in
  Cc.init g.ctx fv fb ~initial_ssthresh:g.initial_ssthresh;
  Rto.init_at fv fb;
  if trace_cwnd then begin
    iv.(b + L.si_flags) <- iv.(b + L.si_flags) lor L.fl_trace;
    Hashtbl.replace g.traces slot (Netstats.Series.create ())
  end;
  record_cwnd g slot;
  note_phase g slot;
  { g; h }

let detach t =
  let slot = Ft.slot_of t.g.table t.h in
  cancel_rto t.g slot;
  cancel_pace t.g slot;
  let iv = Ft.ints t.g.table in
  if iv.((slot * t.g.row_ints) + L.si_flags) land L.fl_trace <> 0 then
    Hashtbl.remove t.g.traces slot;
  Ft.free t.g.table t.h

let table g = g.table

let group t = t.g

let slot t = Ft.slot_of t.g.table t.h

let write t n =
  if n < 0 then invalid_arg "Tcp_sender.write: negative count";
  let s = slot t in
  let iv = Ft.ints t.g.table in
  let i = (s * t.g.row_ints) + L.si_app_submitted in
  iv.(i) <- iv.(i) + n;
  try_send t.g s

let handle_packet t h = handle_packet_slot t.g (slot t) h

let cwnd t = (Ft.floats t.g.table).((slot t * t.g.row_floats) + L.f_cwnd)

let ssthresh t = (Ft.floats t.g.table).((slot t * t.g.row_floats) + L.f_ssthresh)

let flight t = gflight (Ft.ints t.g.table) (slot t * t.g.row_ints)

let backlog t = gbacklog (Ft.ints t.g.table) (slot t * t.g.row_ints)

let snd_una t = (Ft.ints t.g.table).((slot t * t.g.row_ints) + L.si_snd_una)

(* Materialised from the row's counter cells; one small record per call,
   only on cold reporting paths. *)
let stats t =
  let iv = Ft.ints t.g.table in
  let b = slot t * t.g.row_ints in
  {
    Tcp_stats.segments_sent = iv.(b + L.si_segments_sent);
    retransmits = iv.(b + L.si_retransmits);
    timeouts = iv.(b + L.si_timeouts);
    fast_retransmits = iv.(b + L.si_fast_retransmits);
    dup_acks = iv.(b + L.si_dup_acks_stat);
    acks_received = iv.(b + L.si_acks_received);
    segments_acked = iv.(b + L.si_segments_acked);
  }

let cwnd_trace t =
  let s = slot t in
  if
    (Ft.ints t.g.table).((s * t.g.row_ints) + L.si_flags) land L.fl_trace <> 0
  then Hashtbl.find t.g.traces s
  else t.g.empty_trace

let in_recovery t =
  (Ft.ints t.g.table).((slot t * t.g.row_ints) + L.si_flags)
  land L.fl_in_recovery
  <> 0

let ecn_reactions t =
  (Ft.ints t.g.table).((slot t * t.g.row_ints) + L.si_ecn_reactions)
