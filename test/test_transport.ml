(* Tests for the transport layer: RTO estimation, congestion-control
   variants, the TCP sender/receiver engines, and lossy-path properties. *)

module Time = Sim_engine.Time
module Scheduler = Sim_engine.Scheduler
module Rng = Sim_engine.Rng
module Pool = Netsim.Packet_pool
open Transport

let check_float = Alcotest.(check (float 1e-9))
let check_close tol = Alcotest.(check (float tol))

(* ------------------------------------------------------------------ *)
(* Rto, on the flow-table row the sender runs *)

(* One flow's estimator cells, plus the have-sample bit the sender keeps
   in its int row. *)
type rto_row = { fs : float array; mutable have : bool }

let rto_row () =
  let r = { fs = Array.make Flow_layout.sender_floats 0.; have = false } in
  Rto.init_at r.fs 0;
  r

let observe r secs =
  Rto.observe_ns_at Rto.default_params r.fs 0 ~first:(not r.have)
    (Time.to_ns (Time.of_sec secs));
  r.have <- true

let rto_s r =
  float_of_int (Rto.rto_ns_at Rto.default_params r.fs 0 ~have_sample:r.have)
  /. 1e9

let rto_before_samples () =
  let r = rto_row () in
  check_float "initial" 3.0 (rto_s r);
  (* Without the have-sample bit the estimator cells are not read. *)
  r.fs.(Flow_layout.f_srtt) <- 100.;
  check_float "cells ignored before a sample" 3.0 (rto_s r)

let rto_after_sample () =
  let r = rto_row () in
  observe r 1.0;
  (* srtt = 1.0, rttvar = 0.5 -> rto = 1 + 4*0.5 = 3, above min 1. *)
  check_float "first sample" 3.0 (rto_s r);
  (* Repeated identical samples shrink rttvar towards 0; rto floors at
     srtt + granularity but never below min_rto. *)
  for _ = 1 to 50 do
    observe r 1.0
  done;
  check_close 0.2 "converged" 1.1 (rto_s r)

let rto_backoff_doubles_and_caps () =
  let r = rto_row () in
  observe r 1.0;
  let base = rto_s r in
  Rto.backoff_at r.fs 0;
  check_float "doubled" (Stdlib.min 64. (base *. 2.)) (rto_s r);
  for _ = 1 to 20 do
    Rto.backoff_at r.fs 0
  done;
  check_float "capped at max" 64. (rto_s r);
  Rto.reset_backoff_at r.fs 0;
  check_float "reset" base (rto_s r)

let rto_sample_resets_backoff () =
  let r = rto_row () in
  observe r 1.0;
  Rto.backoff_at r.fs 0;
  observe r 1.0;
  Alcotest.(check bool) "sample cleared backoff" true (rto_s r < 4.)

let rto_quantization () =
  let r = rto_row () in
  observe r 0.949;
  (* quantized to 0.9 with granularity 0.1 *)
  check_close 1e-6 "srtt quantized" 0.9 r.fs.(Flow_layout.f_srtt)

let rto_min_clamp () =
  let r = rto_row () in
  for _ = 1 to 60 do
    observe r 0.01
  done;
  check_float "min rto" 1.0 (rto_s r)

(* Random parameters and random sample / backoff / reset sequences: the
   row estimator must track the RFC 6298 float oracle cell for cell, and
   its integer timeout must be the oracle's seconds turned into a clock
   time. Backoffs come in runs long enough to reach the multiplier's
   cap of 64 below max_rto. *)
type rto_op = Sample of int | Backoff of int | Reset

let rto_oracle_property =
  let print_op = function
    | Sample ns -> Printf.sprintf "sample %d" ns
    | Backoff k -> Printf.sprintf "backoff x%d" k
    | Reset -> "reset"
  in
  let print ((g, lo, hi, init), ops) =
    Printf.sprintf "g=%h min=%h max=%h initial=%h [%s]" g lo hi init
      (String.concat "; " (List.map print_op ops))
  in
  QCheck2.Test.make ~name:"integer-ns api matches" ~count:300 ~print
    QCheck2.Gen.(
      pair
        (quad
           (oneofl [ 0.001; 0.01; 0.1; 0.5 ])
           (float_range 0.05 2.) (float_range 0. 100.) (float_range 0.1 6.))
        (list_size (int_range 0 40)
           (frequency
              [
                (3, map (fun ns -> Sample ns) (int_range 0 5_000_000_000));
                (2, map (fun k -> Backoff k) (int_range 1 9));
                (1, pure Reset);
              ])))
    (fun ((granularity, min_rto, extra, initial_rto), ops) ->
      let p =
        { Rto.granularity; min_rto; max_rto = min_rto +. extra; initial_rto }
      in
      let fs = Array.make Flow_layout.sender_floats 0. in
      Rto.init_at fs 0;
      let same_bits a b =
        Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
      in
      (* The sender's have-sample bit is the oracle's [srtt <> None]. *)
      let check st =
        (match st.Oracle.srtt with
        | None -> true
        | Some srtt ->
            same_bits srtt fs.(Flow_layout.f_srtt)
            && same_bits st.Oracle.rttvar fs.(Flow_layout.f_rttvar))
        && Rto.rto_ns_at p fs 0 ~have_sample:(st.Oracle.srtt <> None)
           = Time.to_ns
               (Time.of_sec
                  (Oracle.rto_seconds ~granularity ~min_rto
                     ~max_rto:p.Rto.max_rto ~initial_rto st))
      in
      let step st = function
        | Sample ns ->
            Rto.observe_ns_at p fs 0 ~first:(st.Oracle.srtt = None) ns;
            Oracle.rto_sample ~granularity st (float_of_int ns *. 1e-9)
        | Backoff k ->
            let st = ref st in
            for _ = 1 to k do
              Rto.backoff_at fs 0;
              st := Oracle.rto_backoff !st
            done;
            !st
        | Reset ->
            Rto.reset_backoff_at fs 0;
            Oracle.rto_reset st
      in
      let rec go st ops =
        check st
        && match ops with [] -> true | op :: rest -> go (step st op) rest
      in
      go Oracle.rto_init ops)

(* ------------------------------------------------------------------ *)
(* Congestion-control variants, driven through the table operations on
   a one-flow float row *)

let info ?(ack = 1) ?(newly = 1) ?rtt ?(flight = 1) () =
  {
    Cc.ack;
    newly_acked = newly;
    rtt_ns =
      (match rtt with Some s -> int_of_float (s *. 1e9) | None -> -1);
    flight_before = flight;
  }

let cc_row ?vegas ~initial_ssthresh ~max_window variant =
  let ctx = Cc.make_ctx ?vegas ~max_window variant in
  let fs = Array.make (Cc.floats_per_flow variant) 0. in
  Cc.init ctx fs 0 ~initial_ssthresh;
  (ctx, fs)

let reno_slow_start_then_avoidance () =
  let ctx, fs = cc_row ~initial_ssthresh:4. ~max_window:100. Cc.Reno in
  check_float "initial cwnd" 1. (Cc.cwnd fs 0);
  Cc.on_new_ack ctx fs 0 (info ());
  check_float "ss +1" 2. (Cc.cwnd fs 0);
  Cc.on_new_ack ctx fs 0 (info ~newly:2 ());
  check_float "ss doubling" 4. (Cc.cwnd fs 0);
  Alcotest.(check bool) "left slow start" false (Cc.in_slow_start fs 0);
  (* at ssthresh: congestion avoidance, +1/cwnd per ack *)
  Cc.on_new_ack ctx fs 0 (info ());
  check_float "ca increment" 4.25 (Cc.cwnd fs 0)

let reno_caps_at_max_window () =
  let ctx, fs = cc_row ~initial_ssthresh:100. ~max_window:8. Cc.Reno in
  Cc.on_new_ack ctx fs 0 (info ~newly:20 ());
  check_float "capped" 8. (Cc.cwnd fs 0)

let reno_fast_recovery_cycle () =
  let ctx, fs = cc_row ~initial_ssthresh:64. ~max_window:64. Cc.Reno in
  Cc.on_new_ack ctx fs 0 (info ~newly:15 ());
  check_float "grown" 16. (Cc.cwnd fs 0);
  Cc.enter_recovery ctx fs 0 ~flight:16;
  check_float "ssthresh halved" 8. (Cc.ssthresh fs 0);
  check_float "inflated" 11. (Cc.cwnd fs 0);
  Cc.dup_ack_inflate ctx fs 0;
  check_float "inflate +1" 12. (Cc.cwnd fs 0);
  Cc.on_full_ack ctx fs 0 (info ());
  check_float "deflated to ssthresh" 8. (Cc.cwnd fs 0)

let reno_timeout_resets () =
  let ctx, fs = cc_row ~initial_ssthresh:64. ~max_window:64. Cc.Reno in
  Cc.on_new_ack ctx fs 0 (info ~newly:15 ());
  Cc.on_timeout ctx fs 0 ~flight:16;
  check_float "cwnd 1" 1. (Cc.cwnd fs 0);
  check_float "ssthresh halved" 8. (Cc.ssthresh fs 0)

let reno_halving_floor () =
  let ctx, fs = cc_row ~initial_ssthresh:64. ~max_window:64. Cc.Reno in
  Cc.on_timeout ctx fs 0 ~flight:1;
  check_float "ssthresh floor 2" 2. (Cc.ssthresh fs 0)

let tahoe_loss_restarts_slow_start () =
  let ctx, fs = cc_row ~initial_ssthresh:64. ~max_window:64. Cc.Tahoe in
  Alcotest.(check bool) "no fast recovery" false (Cc.uses_fast_recovery Cc.Tahoe);
  Cc.on_new_ack ctx fs 0 (info ~newly:15 ());
  Cc.enter_recovery ctx fs 0 ~flight:16;
  check_float "cwnd back to 1" 1. (Cc.cwnd fs 0);
  check_float "ssthresh halved" 8. (Cc.ssthresh fs 0)

let newreno_partial_ack () =
  let ctx, fs = cc_row ~initial_ssthresh:64. ~max_window:64. Cc.Newreno in
  Alcotest.(check bool) "partial stays" true (Cc.partial_ack_stays Cc.Newreno);
  Cc.on_new_ack ctx fs 0 (info ~newly:15 ());
  Cc.enter_recovery ctx fs 0 ~flight:16;
  let before = Cc.cwnd fs 0 in
  Cc.on_partial_ack ctx fs 0 (info ~newly:4 ());
  check_float "deflate by acked minus one" (before -. 3.) (Cc.cwnd fs 0)

let vegas_epoch_adjustments () =
  let params = { Cc.alpha = 1.; beta = 3.; gamma = 1. } in
  let ctx, fs =
    cc_row ~vegas:params ~initial_ssthresh:64. ~max_window:64. Cc.Vegas
  in
  check_float "vegas starts at 2" 2. (Cc.cwnd fs 0);
  (* End slow start: epoch with diff > gamma. baseRTT=1.0, rtt=2.0,
     cwnd=2 -> diff = 2*(1-0.5) = 1.0; need > 1, use rtt 3: diff=1.33. *)
  Cc.on_new_ack ctx fs 0 (info ~ack:1 ~rtt:1.0 ~flight:1 ());
  (* epoch_mark was 0, so ack=1 ends an epoch; base=1.0, mean=1.0, diff=0:
     still slow start, grow epoch toggles. *)
  Cc.on_new_ack ctx fs 0 (info ~ack:5 ~rtt:3.0 ~flight:2 ());
  (* This ack passes the new mark (1+1=2): epoch ends with mean rtt 3.0;
     diff = cwnd*(1-1/3) > 1 -> exit slow start with 7/8 decrease. *)
  let w = Cc.cwnd fs 0 in
  Alcotest.(check bool) "left slow start" true (w >= 2. && w < 4.);
  (* Now in CA. diff < alpha -> +1. Make an epoch with rtt == base. *)
  let mark = 5 + 2 in
  Cc.on_new_ack ctx fs 0 (info ~ack:(mark + 1) ~rtt:1.0 ~flight:3 ());
  check_float "ca linear increase" (w +. 1.) (Cc.cwnd fs 0);
  (* diff > beta -> -1: rtt big. Next mark = prev ack + flight. *)
  let mark2 = mark + 1 + 3 in
  Cc.on_new_ack ctx fs 0 (info ~ack:(mark2 + 1) ~rtt:10.0 ~flight:3 ());
  check_float "ca linear decrease" w (Cc.cwnd fs 0)

let vegas_gentler_recovery () =
  let ctx, fs = cc_row ~initial_ssthresh:64. ~max_window:64. Cc.Vegas in
  (* Grow a bit in slow start. *)
  Cc.on_new_ack ctx fs 0 (info ~ack:1 ~newly:6 ~rtt:1.0 ());
  let w = Cc.cwnd fs 0 in
  Cc.enter_recovery ctx fs 0 ~flight:8;
  check_float "3/4 decrease + inflation" ((w *. 0.75) +. 3.) (Cc.cwnd fs 0);
  Cc.on_timeout ctx fs 0 ~flight:8;
  check_float "timeout to 2" 2. (Cc.cwnd fs 0)

let vegas_rejects_bad_params () =
  Alcotest.check_raises "beta < alpha"
    (Invalid_argument "Cc.make_ctx: bad alpha/beta/gamma") (fun () ->
      ignore
        (Cc.make_ctx
           ~vegas:{ Cc.alpha = 3.; beta = 1.; gamma = 1. }
           ~max_window:1. Cc.Vegas))

(* ------------------------------------------------------------------ *)
(* Tcp_sender driven by hand-crafted ACKs *)

type harness = {
  sched : Scheduler.t;
  pool : Pool.t;
  sender : Tcp_sender.t;
  outbox : Pool.handle list ref;
}

let make_harness ?(cc = `Reno) ?(adv_window = 64) ?(cwnd_validation = false)
    ?(pacing = false) ?(trace_cwnd = false) () =
  let sched = Scheduler.create () in
  let pool = Pool.create () in
  let outbox = ref [] in
  let cc =
    match cc with
    | `Reno -> Cc.Reno
    | `Tahoe -> Cc.Tahoe
    | `Newreno -> Cc.Newreno
  in
  let sender =
    Tcp_sender.attach
      (Tcp_sender.create_group ~cwnd_validation ~pacing sched
         ~pool ~cc ~rto_params:Rto.default_params ~mss_bytes:1000 ~adv_window
         ~transmit:(fun ~flow:_ p -> outbox := p :: !outbox))
      ~flow:0 ~src:1 ~dst:0 ~trace_cwnd ()
  in
  { sched; pool; sender; outbox }

let sent_seqs h = List.rev_map (Pool.seq h.pool) !(h.outbox)

(* Drain the outbox, returning (seq, is_retransmit) in send order; the
   handles are freed (the harness is the network, and the network is done
   with them once the test has looked). *)
let take_outbox h =
  let out = List.rev !(h.outbox) in
  h.outbox := [];
  let described =
    List.map (fun p -> (Pool.seq h.pool p, Pool.is_retransmit h.pool p)) out
  in
  List.iter (Pool.free h.pool) out;
  described

let ack h n =
  let p =
    Pool.alloc_ack h.pool ~flow:0 ~src:0 ~dst:1 ~size_bytes:40
      ~sent_at:(Scheduler.now h.sched) ~ack:n ~ece:false ~sack:[] ()
  in
  Tcp_sender.handle_packet h.sender p;
  Pool.free h.pool p

let advance h dt = Scheduler.run ~until:(Time.add (Scheduler.now h.sched) (Time.of_sec dt)) h.sched

let sender_initial_window_one () =
  let h = make_harness () in
  Tcp_sender.write h.sender 10;
  Alcotest.(check (list int)) "only seq 0" [ 0 ] (sent_seqs h);
  Alcotest.(check int) "flight" 1 (Tcp_sender.flight h.sender);
  Alcotest.(check int) "backlog" 9 (Tcp_sender.backlog h.sender)

let sender_slow_start_doubling () =
  let h = make_harness () in
  Tcp_sender.write h.sender 100;
  ignore (take_outbox h);
  advance h 0.1;
  ack h 1;
  (* cwnd 2: sends 1 and 2 *)
  Alcotest.(check (list int)) "two more" [ 1; 2 ] (List.map fst (take_outbox h));
  advance h 0.1;
  ack h 3;
  (* cwnd 4: sends 3,4,5,6 *)
  Alcotest.(check int) "four more" 4 (List.length (take_outbox h));
  check_float "cwnd 4" 4. (Tcp_sender.cwnd h.sender)

let sender_respects_adv_window () =
  let h = make_harness ~adv_window:3 () in
  Tcp_sender.write h.sender 100;
  ignore (take_outbox h);
  advance h 0.1;
  ack h 1;
  advance h 0.1;
  ack h 3;
  (* cwnd would be 4 but adv window caps usable window at 3 *)
  Alcotest.(check int) "flight capped" 3 (Tcp_sender.flight h.sender)

let sender_fast_retransmit_on_three_dupacks () =
  let h = make_harness () in
  Tcp_sender.write h.sender 20;
  ignore (take_outbox h);
  advance h 0.1;
  ack h 1;
  advance h 0.1;
  ack h 3;
  (* flight now seqs 3..6 *)
  ignore (take_outbox h);
  (* Loss of 3: three dup ACKs for 3. *)
  ack h 3;
  ack h 3;
  Alcotest.(check int) "not yet" 0 (List.length (take_outbox h));
  ack h 3;
  let out = take_outbox h in
  Alcotest.(check bool) "retransmitted head" true
    (List.exists (fun (seq, rtx) -> seq = 3 && rtx) out);
  Alcotest.(check bool) "in recovery" true (Tcp_sender.in_recovery h.sender);
  let st = Tcp_sender.stats h.sender in
  Alcotest.(check int) "fast rtx counted" 1 st.Tcp_stats.fast_retransmits;
  Alcotest.(check int) "dup acks counted" 3 st.Tcp_stats.dup_acks;
  (* A new cumulative ACK ends recovery and deflates. *)
  advance h 0.1;
  ack h 7;
  Alcotest.(check bool) "recovery over" false (Tcp_sender.in_recovery h.sender);
  check_float "deflated to ssthresh" (Tcp_sender.ssthresh h.sender)
    (Tcp_sender.cwnd h.sender)

let sender_timeout_and_backoff () =
  let h = make_harness () in
  Tcp_sender.write h.sender 5;
  ignore (take_outbox h);
  (* No ACKs: initial RTO 3 s. *)
  advance h 3.5;
  let st = Tcp_sender.stats h.sender in
  Alcotest.(check int) "one timeout" 1 st.Tcp_stats.timeouts;
  Alcotest.(check bool) "head retransmitted" true
    (List.exists (fun (seq, rtx) -> seq = 0 && rtx) (take_outbox h));
  check_float "cwnd collapsed" 1. (Tcp_sender.cwnd h.sender);
  (* Backed-off timer: next expiry ~6 s later. *)
  advance h 5.;
  Alcotest.(check int) "no early second timeout" 1 (Tcp_sender.stats h.sender).Tcp_stats.timeouts;
  advance h 2.;
  Alcotest.(check int) "second timeout" 2 (Tcp_sender.stats h.sender).Tcp_stats.timeouts

let sender_no_timeout_when_idle () =
  let h = make_harness () in
  Tcp_sender.write h.sender 1;
  ignore (take_outbox h);
  advance h 0.1;
  ack h 1;
  (* Flight empty: timer cancelled, nothing fires. *)
  advance h 10.;
  Alcotest.(check int) "no timeouts" 0 (Tcp_sender.stats h.sender).Tcp_stats.timeouts

let sender_ignores_old_acks () =
  let h = make_harness () in
  Tcp_sender.write h.sender 5;
  ignore (take_outbox h);
  advance h 0.1;
  ack h 1;
  ack h 0;
  (* stale: below snd_una *)
  Alcotest.(check int) "snd_una unchanged" 1 (Tcp_sender.snd_una h.sender);
  Alcotest.(check int) "no dup acks counted" 0 (Tcp_sender.stats h.sender).Tcp_stats.dup_acks

let sender_dupacks_ignored_when_nothing_outstanding () =
  let h = make_harness () in
  Tcp_sender.write h.sender 1;
  ignore (take_outbox h);
  advance h 0.1;
  ack h 1;
  ack h 1;
  ack h 1;
  ack h 1;
  Alcotest.(check int) "no fast rtx" 0 (Tcp_sender.stats h.sender).Tcp_stats.fast_retransmits

let sender_tahoe_no_recovery_state () =
  let h = make_harness ~cc:`Tahoe () in
  Tcp_sender.write h.sender 20;
  ignore (take_outbox h);
  advance h 0.1;
  ack h 1;
  advance h 0.1;
  ack h 3;
  ignore (take_outbox h);
  ack h 3;
  ack h 3;
  ack h 3;
  Alcotest.(check bool) "tahoe never in recovery" false (Tcp_sender.in_recovery h.sender);
  check_float "cwnd 1" 1. (Tcp_sender.cwnd h.sender);
  Alcotest.(check int) "fast rtx counted" 1 (Tcp_sender.stats h.sender).Tcp_stats.fast_retransmits

let sender_cwnd_trace_records () =
  let h = make_harness ~trace_cwnd:true () in
  Tcp_sender.write h.sender 10;
  advance h 0.1;
  ack h 1;
  Alcotest.(check bool) "trace non-empty" true
    (Netstats.Series.length (Tcp_sender.cwnd_trace h.sender) >= 2)

let sender_cwnd_trace_off_by_default () =
  let h = make_harness () in
  Tcp_sender.write h.sender 10;
  advance h 0.1;
  ack h 1;
  Alcotest.(check int) "no trace unless requested" 0
    (Netstats.Series.length (Tcp_sender.cwnd_trace h.sender))

let ack_ece h n =
  let p =
    Pool.alloc_ack h.pool ~flow:0 ~src:0 ~dst:1 ~size_bytes:40
      ~sent_at:(Scheduler.now h.sched) ~ack:n ~ece:true ~sack:[] ()
  in
  Tcp_sender.handle_packet h.sender p;
  Pool.free h.pool p

let sender_ece_halves_once_per_rtt () =
  let h = make_harness () in
  Tcp_sender.write h.sender 100;
  ignore (take_outbox h);
  advance h 0.1;
  ack h 1;
  advance h 0.1;
  ack h 3;
  advance h 0.1;
  ack h 7;
  (* cwnd = 8, flight 8. Two ECE acks in the same RTT: one reaction. *)
  let before = Tcp_sender.cwnd h.sender in
  ack_ece h 8;
  let after_first = Tcp_sender.cwnd h.sender in
  Alcotest.(check bool) "window reduced" true (after_first < before);
  ack_ece h 9;
  check_float "second ECE ignored within the RTT"
    (after_first +. 1. /. after_first) (* the new ACK still grows by 1/cwnd *)
    (Tcp_sender.cwnd h.sender)

let sender_non_ecn_ignores_ece () =
  let h = make_harness () in
  Tcp_sender.write h.sender 10;
  ignore (take_outbox h);
  advance h 0.1;
  ack h 1;
  let before = Tcp_sender.cwnd h.sender in
  ack_ece h 1;
  (* duplicate ACK with ECE: reaction happens (sender always honours ECE;
     capability only controls the flag on outgoing data) *)
  Alcotest.(check bool) "reacted" true (Tcp_sender.cwnd h.sender <= before)

let sender_cwnd_validation_blocks_idle_growth () =
  (* App-limited: only 4 segments ever written. After seq 3 goes out the
     flow has 1 in flight against a window of 4, so the final ACK must not
     grow a validated window. *)
  let grow validation =
    let h = make_harness ~cwnd_validation:validation () in
    Tcp_sender.write h.sender 4;
    ignore (take_outbox h);
    advance h 0.1;
    ack h 1;
    (* cwnd 2, sends 1 and 2 *)
    advance h 0.1;
    ack h 3;
    (* cwnd 4, sends 3 (backlog empty): flight 1 *)
    let before = Tcp_sender.cwnd h.sender in
    advance h 0.1;
    ack h 4;
    Tcp_sender.cwnd h.sender -. before
  in
  Alcotest.(check bool) "no growth with validation" true (grow true <= 0.);
  Alcotest.(check bool) "growth without" true (grow false > 0.)

(* Every runner builds its senders through [create_group], so the RTO
   parameters are checked there, by field name. *)
let sender_rejects_bad_rto_params () =
  let bad field rto_params =
    Alcotest.check_raises field
      (Invalid_argument ("Tcp_sender.create_group: rto_params." ^ field))
      (fun () ->
        ignore
          (Tcp_sender.create_group (Scheduler.create ()) ~pool:(Pool.create ())
             ~cc:Cc.Reno ~rto_params ~mss_bytes:1000 ~adv_window:20
             ~transmit:(fun ~flow:_ _ -> ())))
  in
  let d = Rto.default_params in
  bad "granularity" { d with Rto.granularity = 0. };
  bad "min_rto" { d with Rto.min_rto = 0. };
  bad "initial_rto" { d with Rto.initial_rto = nan };
  bad "max_rto" { d with Rto.max_rto = 0.5; min_rto = 1.0 };
  bad "max_rto" { d with Rto.max_rto = infinity }

let sender_pacing_spreads_window () =
  (* With srtt established at ~1 s and cwnd 4, a paced sender must space
     new segments ~250 ms apart instead of releasing them back-to-back. *)
  let h = make_harness ~pacing:true () in
  Tcp_sender.write h.sender 100;
  ignore (take_outbox h);
  advance h 1.0;
  ack h 1;
  (* srtt ~ 1 s now; cwnd 2. *)
  advance h 1.0;
  ack h 2;
  ignore (take_outbox h);
  (* cwnd 3: watch the next sends spread out. *)
  advance h 0.05;
  let immediately = List.length (take_outbox h) in
  advance h 2.0;
  let later = List.length (take_outbox h) in
  Alcotest.(check bool)
    (Printf.sprintf "at most 1 right away (got %d), rest paced (%d later)"
       immediately later)
    true
    (immediately <= 1 && later >= 1)

let loop_pacing_transfer_completes () =
  (* End-to-end sanity: a paced sender still completes a transfer. *)
  let lsched = Scheduler.create () in
  let pool = Pool.create () in
  let receiver_cell = ref None and sender_cell = ref None in
  let wire target p =
    ignore
      (Scheduler.after lsched (Time.of_sec 0.05) (fun () ->
           (match target with
           | `R -> Tcp_receiver.handle_packet (Option.get !receiver_cell) p
           | `S -> Tcp_sender.handle_packet (Option.get !sender_cell) p);
           Pool.free pool p))
  in
  let sender =
    Tcp_sender.attach
      (Tcp_sender.create_group ~pacing:true lsched ~pool ~cc:Cc.Reno
         ~rto_params:Rto.default_params ~mss_bytes:1000 ~adv_window:64
         ~transmit:(fun ~flow:_ p -> wire `R p))
      ~flow:0 ~src:1 ~dst:0 ()
  in
  let receiver =
    Tcp_receiver.attach
      (Tcp_receiver.create_group lsched ~pool ~ack_bytes:40 ~delayed_ack:false
         ~adv_window:64
         ~transmit:(fun ~flow:_ p -> wire `S p))
      ~flow:0 ~src:0 ~dst:1 ()
  in
  sender_cell := Some sender;
  receiver_cell := Some receiver;
  Tcp_sender.write sender 200;
  Scheduler.run ~until:(Time.of_sec 120.) lsched;
  Alcotest.(check int) "all delivered" 200 (Tcp_receiver.delivered receiver)

(* ------------------------------------------------------------------ *)
(* Tcp_receiver *)

type rharness = {
  rsched : Scheduler.t;
  rpool : Pool.t;
  receiver : Tcp_receiver.t;
  acks : Pool.handle list ref;
}

let make_receiver ?(delayed_ack = false) ?(sack = false) () =
  let rsched = Scheduler.create () in
  let rpool = Pool.create () in
  let acks = ref [] in
  let receiver =
    Tcp_receiver.attach
      (Tcp_receiver.create_group ~sack rsched ~pool:rpool ~ack_bytes:40
         ~delayed_ack ~adv_window:64
         ~transmit:(fun ~flow:_ p -> acks := p :: !acks))
      ~flow:0 ~src:0 ~dst:1 ()
  in
  { rsched; rpool; receiver; acks }

let data rh seq =
  Pool.alloc_data rh.rpool ~flow:0 ~src:1 ~dst:0 ~size_bytes:1000
    ~sent_at:(Scheduler.now rh.rsched) ~seq ~is_retransmit:false ()

(* Feed a data segment and free it afterwards (handle_packet reads only). *)
let recv rh seq =
  let p = data rh seq in
  Tcp_receiver.handle_packet rh.receiver p;
  Pool.free rh.rpool p

let ack_values rh =
  List.rev_map
    (fun p ->
      if Pool.kind rh.rpool p = Pool.Tcp_ack then Pool.ack rh.rpool p else -1)
    !(rh.acks)

let receiver_in_order () =
  let rh = make_receiver () in
  List.iter (recv rh) [ 0; 1; 2 ];
  Alcotest.(check int) "delivered" 3 (Tcp_receiver.delivered rh.receiver);
  Alcotest.(check (list int)) "cumulative acks" [ 1; 2; 3 ] (ack_values rh)

let receiver_out_of_order_dup_acks () =
  let rh = make_receiver () in
  List.iter (recv rh) [ 0; 2; 3; 4 ];
  (* 2,3,4 out of order: each produces a duplicate ACK of 1. *)
  Alcotest.(check (list int)) "dup acks" [ 1; 1; 1; 1 ] (ack_values rh);
  Alcotest.(check int) "only seq 0 delivered" 1 (Tcp_receiver.delivered rh.receiver);
  (* Filling the hole delivers everything buffered. *)
  recv rh 1;
  Alcotest.(check int) "all delivered" 5 (Tcp_receiver.delivered rh.receiver);
  Alcotest.(check (list int)) "jump ack" [ 1; 1; 1; 1; 5 ] (ack_values rh)

let receiver_duplicate_data () =
  let rh = make_receiver () in
  recv rh 0;
  recv rh 0;
  Alcotest.(check int) "delivered once" 1 (Tcp_receiver.delivered rh.receiver);
  Alcotest.(check int) "dup discarded" 1 (Tcp_receiver.duplicates_discarded rh.receiver);
  Alcotest.(check (list int)) "re-ack" [ 1; 1 ] (ack_values rh)

let receiver_delayed_ack_every_second () =
  let rh = make_receiver ~delayed_ack:true () in
  recv rh 0;
  Alcotest.(check int) "first held" 0 (List.length !(rh.acks));
  recv rh 1;
  Alcotest.(check (list int)) "acked on second" [ 2 ] (ack_values rh)

let receiver_delayed_ack_timer () =
  let rh = make_receiver ~delayed_ack:true () in
  recv rh 0;
  Scheduler.run ~until:(Time.of_sec 0.1) rh.rsched;
  Alcotest.(check int) "still held at 100ms" 0 (List.length !(rh.acks));
  Scheduler.run ~until:(Time.of_sec 0.25) rh.rsched;
  Alcotest.(check (list int)) "timer fired by 250ms" [ 1 ] (ack_values rh)

let last_sack rh =
  match !(rh.acks) with
  | p :: _ when Pool.kind rh.rpool p = Pool.Tcp_ack -> Pool.sack rh.rpool p
  | _ -> []

let receiver_sack_blocks () =
  let rh = make_receiver ~sack:true () in
  (* Receive 0, then 2,3, then 6: two out-of-order blocks. *)
  recv rh 0;
  Alcotest.(check (list (pair int int))) "no blocks in order" [] (last_sack rh);
  recv rh 2;
  recv rh 3;
  Alcotest.(check (list (pair int int))) "one block" [ (2, 4) ] (last_sack rh);
  recv rh 6;
  Alcotest.(check (list (pair int int))) "two blocks" [ (2, 4); (6, 7) ] (last_sack rh);
  (* Filling the first hole merges and shrinks the report. *)
  recv rh 1;
  Alcotest.(check (list (pair int int))) "remaining block" [ (6, 7) ] (last_sack rh)

let receiver_no_sack_blocks_when_disabled () =
  let rh = make_receiver () in
  recv rh 3;
  Alcotest.(check (list (pair int int))) "empty" [] (last_sack rh)

let receiver_echoes_ce_as_ece () =
  let rh = make_receiver () in
  let p = data rh 0 in
  Pool.set_ecn_ce rh.rpool p;
  Tcp_receiver.handle_packet rh.receiver p;
  Pool.free rh.rpool p;
  (* The ACK for the marked segment carries ECE; the next one does not. *)
  recv rh 1;
  let eces =
    List.rev_map
      (fun p ->
        Pool.kind rh.rpool p = Pool.Tcp_ack && Pool.ece rh.rpool p)
      !(rh.acks)
  in
  Alcotest.(check (list bool)) "ece once" [ true; false ] eces

let receiver_delayed_ack_ooo_immediate () =
  let rh = make_receiver ~delayed_ack:true () in
  recv rh 3;
  Alcotest.(check (list int)) "immediate dup ack" [ 0 ] (ack_values rh)

(* ------------------------------------------------------------------ *)
(* Sender + receiver end-to-end over a simple wire *)

type loop = {
  lsched : Scheduler.t;
  lpool : Pool.t;
  lsender : Tcp_sender.t;
  lreceiver : Tcp_receiver.t;
  data_sent : int ref;
}

(* Wire both directions with a fixed one-way delay; [drop] decides data
   packet loss (given the pool and the handle). ACKs are never dropped.
   The wire owns every packet in flight: it frees after the far end has
   read it, and a dropped packet is freed on the spot. *)
let make_loop ?(cc = `Reno) ?(delay = 0.05) ~drop () =
  let lsched = Scheduler.create () in
  let lpool = Pool.create () in
  let data_sent = ref 0 in
  let receiver_cell = ref None and sender_cell = ref None in
  let wire target p =
    ignore
      (Scheduler.after lsched (Time.of_sec delay) (fun () ->
           (match target with
           | `To_receiver -> Tcp_receiver.handle_packet (Option.get !receiver_cell) p
           | `To_sender -> Tcp_sender.handle_packet (Option.get !sender_cell) p);
           Pool.free lpool p))
  in
  let cc =
    match cc with
    | `Reno -> Cc.Reno
    | `Newreno -> Cc.Newreno
    | `Tahoe -> Cc.Tahoe
    | `Vegas -> Cc.Vegas
  in
  let lsender =
    Tcp_sender.attach
      (Tcp_sender.create_group lsched ~pool:lpool ~cc
         ~rto_params:Rto.default_params ~mss_bytes:1000 ~adv_window:64
         ~transmit:(fun ~flow:_ p ->
           incr data_sent;
           if drop lpool p then Pool.free lpool p else wire `To_receiver p))
      ~flow:0 ~src:1 ~dst:0 ()
  in
  let lreceiver =
    Tcp_receiver.attach
      (Tcp_receiver.create_group lsched ~pool:lpool ~ack_bytes:40
         ~delayed_ack:false ~adv_window:64
         ~transmit:(fun ~flow:_ p -> wire `To_sender p))
      ~flow:0 ~src:0 ~dst:1 ()
  in
  sender_cell := Some lsender;
  receiver_cell := Some lreceiver;
  { lsched; lpool; lsender; lreceiver; data_sent }

let loop_lossless_transfer () =
  let l = make_loop ~drop:(fun _ _ -> false) () in
  Tcp_sender.write l.lsender 200;
  Scheduler.run ~until:(Time.of_sec 60.) l.lsched;
  Alcotest.(check int) "all delivered" 200 (Tcp_receiver.delivered l.lreceiver);
  Alcotest.(check int) "no retransmits" 0 (Tcp_sender.stats l.lsender).Tcp_stats.retransmits;
  Alcotest.(check int) "no timeouts" 0 (Tcp_sender.stats l.lsender).Tcp_stats.timeouts;
  Alcotest.(check int) "wire leaked nothing" 0 (Pool.live l.lpool)

(* Drop the first transmission of [seq] only. *)
let drop_first_transmission_of seq =
  let dropped = ref false in
  fun pool p ->
    if
      (not !dropped)
      && Pool.kind pool p = Pool.Tcp_data
      && Pool.seq pool p = seq
      && not (Pool.is_retransmit pool p)
    then begin
      dropped := true;
      true
    end
    else false

let loop_single_loss_fast_retransmit () =
  let l = make_loop ~drop:(drop_first_transmission_of 10) () in
  Tcp_sender.write l.lsender 100;
  Scheduler.run ~until:(Time.of_sec 60.) l.lsched;
  Alcotest.(check int) "all delivered despite loss" 100 (Tcp_receiver.delivered l.lreceiver);
  let st = Tcp_sender.stats l.lsender in
  Alcotest.(check int) "recovered by fast retransmit" 1 st.Tcp_stats.fast_retransmits;
  Alcotest.(check int) "no timeout needed" 0 st.Tcp_stats.timeouts

let loop_loss_of_last_segment_needs_timeout () =
  (* The final segment has no successors to generate dup ACKs: only the
     retransmission timer can recover it. *)
  let l = make_loop ~drop:(drop_first_transmission_of 4) () in
  Tcp_sender.write l.lsender 5;
  Scheduler.run ~until:(Time.of_sec 60.) l.lsched;
  Alcotest.(check int) "all delivered" 5 (Tcp_receiver.delivered l.lreceiver);
  Alcotest.(check bool) "timeout used" true
    ((Tcp_sender.stats l.lsender).Tcp_stats.timeouts >= 1)

let loop_random_loss_property ~cc ~seed ~loss_rate ~count () =
  let rng = Rng.create ~seed in
  let drop pool p = Pool.is_data pool p && Rng.bool rng loss_rate in
  let l = make_loop ~cc ~drop () in
  Tcp_sender.write l.lsender count;
  Scheduler.run ~until:(Time.of_sec 2000.) l.lsched;
  Alcotest.(check int)
    (Printf.sprintf "complete under %.0f%% loss" (loss_rate *. 100.))
    count
    (Tcp_receiver.delivered l.lreceiver);
  Alcotest.(check bool) "loss caused retransmits" true
    ((Tcp_sender.stats l.lsender).Tcp_stats.retransmits > 0);
  Alcotest.(check int) "wire leaked nothing" 0 (Pool.live l.lpool)

let loop_reno_random_loss () =
  loop_random_loss_property ~cc:`Reno ~seed:101L ~loss_rate:0.05 ~count:500 ()

let loop_newreno_random_loss () =
  loop_random_loss_property ~cc:`Newreno ~seed:102L ~loss_rate:0.10 ~count:500 ()

let loop_tahoe_random_loss () =
  loop_random_loss_property ~cc:`Tahoe ~seed:103L ~loss_rate:0.05 ~count:300 ()

let loop_vegas_random_loss () =
  loop_random_loss_property ~cc:`Vegas ~seed:104L ~loss_rate:0.05 ~count:300 ()

let loop_heavy_loss_still_completes () =
  loop_random_loss_property ~cc:`Reno ~seed:105L ~loss_rate:0.3 ~count:100 ()

(* ------------------------------------------------------------------ *)
(* SACK sender over the wire *)

(* Like make_loop but with SACK enabled on both ends. *)
let make_sack_loop ?(delay = 0.05) ~drop () =
  let lsched = Scheduler.create () in
  let lpool = Pool.create () in
  let data_sent = ref 0 in
  let receiver_cell = ref None and sender_cell = ref None in
  let wire target p =
    ignore
      (Scheduler.after lsched (Time.of_sec delay) (fun () ->
           (match target with
           | `To_receiver -> Tcp_receiver.handle_packet (Option.get !receiver_cell) p
           | `To_sender -> Tcp_sender.handle_packet (Option.get !sender_cell) p);
           Pool.free lpool p))
  in
  let lsender =
    Tcp_sender.attach
      (Tcp_sender.create_group ~sack:true lsched ~pool:lpool ~cc:Cc.Sack
         ~rto_params:Rto.default_params ~mss_bytes:1000 ~adv_window:64
         ~transmit:(fun ~flow:_ p ->
           incr data_sent;
           if drop lpool p then Pool.free lpool p else wire `To_receiver p))
      ~flow:0 ~src:1 ~dst:0 ()
  in
  let lreceiver =
    Tcp_receiver.attach
      (Tcp_receiver.create_group ~sack:true lsched ~pool:lpool ~ack_bytes:40
         ~delayed_ack:false ~adv_window:64
         ~transmit:(fun ~flow:_ p -> wire `To_sender p))
      ~flow:0 ~src:0 ~dst:1 ()
  in
  sender_cell := Some lsender;
  receiver_cell := Some lreceiver;
  { lsched; lpool; lsender; lreceiver; data_sent }

(* Drop the first transmission of each sequence number in [seqs]. *)
let drop_first_transmissions seqs =
  let dropped = Hashtbl.create 4 in
  fun pool p ->
    let seq = if Pool.kind pool p = Pool.Tcp_data then Pool.seq pool p else -1 in
    if List.mem seq seqs && (not (Pool.is_retransmit pool p))
       && not (Hashtbl.mem dropped seq)
    then begin
      Hashtbl.replace dropped seq ();
      true
    end
    else false

let sack_recovers_multiple_losses_without_timeout () =
  (* Drop three segments of one window. Reno would need timeouts; SACK's
     scoreboard retransmits all three holes inside one recovery. *)
  let l = make_sack_loop ~drop:(drop_first_transmissions [ 10; 12; 14 ]) () in
  Tcp_sender.write l.lsender 100;
  Scheduler.run ~until:(Time.of_sec 60.) l.lsched;
  Alcotest.(check int) "all delivered" 100 (Tcp_receiver.delivered l.lreceiver);
  let st = Tcp_sender.stats l.lsender in
  Alcotest.(check int) "no timeout" 0 st.Tcp_stats.timeouts;
  Alcotest.(check int) "exactly the three holes resent" 3 st.Tcp_stats.retransmits

let reno_same_losses_needs_timeout () =
  (* The contrast case for the test above, same drop pattern under Reno. *)
  let l = make_loop ~cc:`Reno ~drop:(drop_first_transmissions [ 10; 12; 14 ]) () in
  Tcp_sender.write l.lsender 100;
  Scheduler.run ~until:(Time.of_sec 60.) l.lsched;
  Alcotest.(check int) "still completes" 100 (Tcp_receiver.delivered l.lreceiver);
  Alcotest.(check bool) "but pays extra recovery rounds" true
    ((Tcp_sender.stats l.lsender).Tcp_stats.timeouts >= 1
    || (Tcp_sender.stats l.lsender).Tcp_stats.fast_retransmits >= 2)

let sack_random_loss_completes () =
  let rng = Rng.create ~seed:106L in
  let drop pool p = Pool.is_data pool p && Rng.bool rng 0.1 in
  let l = make_sack_loop ~drop () in
  Tcp_sender.write l.lsender 500;
  Scheduler.run ~until:(Time.of_sec 2000.) l.lsched;
  Alcotest.(check int) "complete under 10% loss" 500
    (Tcp_receiver.delivered l.lreceiver)

(* ------------------------------------------------------------------ *)
(* Flow groups: attach/detach lifecycle over the shared tables *)

let stale_exn = Invalid_argument "Flow_table: stale or freed flow handle"

let group_attach_detach_accounting () =
  let sched = Scheduler.create () in
  let pool = Pool.create () in
  let sg =
    Tcp_sender.create_group ~capacity:8 sched ~pool ~cc:Cc.Reno
      ~rto_params:Rto.default_params ~mss_bytes:1000 ~adv_window:8
      ~transmit:(fun ~flow:_ _ -> ())
  in
  let rg =
    Tcp_receiver.create_group ~capacity:8 sched ~pool ~ack_bytes:40
      ~delayed_ack:false ~adv_window:8
      ~transmit:(fun ~flow:_ _ -> ())
  in
  let senders =
    List.init 8 (fun i -> Tcp_sender.attach sg ~flow:i ~src:(100 + i) ~dst:0 ())
  in
  let receivers =
    List.init 8 (fun i -> Tcp_receiver.attach rg ~flow:i ~src:0 ~dst:(100 + i) ())
  in
  Alcotest.(check int) "sender rows live" 8
    (Netsim.Flow_table.live (Tcp_sender.table sg));
  Alcotest.(check int) "receiver rows live" 8
    (Netsim.Flow_table.live (Tcp_receiver.table rg));
  Alcotest.(check int) "pre-size held (sender)" 0
    (Netsim.Flow_table.growth_count (Tcp_sender.table sg));
  Alcotest.(check int) "pre-size held (receiver)" 0
    (Netsim.Flow_table.growth_count (Tcp_receiver.table rg));
  List.iter Tcp_sender.detach senders;
  List.iter Tcp_receiver.detach receivers;
  Alcotest.(check int) "sender table drained" 0
    (Netsim.Flow_table.live (Tcp_sender.table sg));
  Alcotest.(check int) "receiver table drained" 0
    (Netsim.Flow_table.live (Tcp_receiver.table rg))

let group_detached_flow_raises () =
  let sched = Scheduler.create () in
  let pool = Pool.create () in
  let sg =
    Tcp_sender.create_group sched ~pool ~cc:Cc.Reno
      ~rto_params:Rto.default_params ~mss_bytes:1000 ~adv_window:8
      ~transmit:(fun ~flow:_ _ -> ())
  in
  let s = Tcp_sender.attach sg ~flow:0 ~src:1 ~dst:0 () in
  Tcp_sender.write s 3;
  Tcp_sender.detach s;
  Alcotest.check_raises "write after detach" stale_exn (fun () ->
      Tcp_sender.write s 1);
  Alcotest.check_raises "read after detach" stale_exn (fun () ->
      ignore (Tcp_sender.cwnd s));
  Alcotest.check_raises "double detach" stale_exn (fun () -> Tcp_sender.detach s);
  let rg =
    Tcp_receiver.create_group sched ~pool ~ack_bytes:40 ~delayed_ack:false
      ~adv_window:8
      ~transmit:(fun ~flow:_ _ -> ())
  in
  let r = Tcp_receiver.attach rg ~flow:0 ~src:0 ~dst:1 () in
  Tcp_receiver.detach r;
  Alcotest.check_raises "receiver read after detach" stale_exn (fun () ->
      ignore (Tcp_receiver.delivered r))

let group_detach_cancels_timers () =
  (* A detached sender's RTO must never fire: detach while a
     retransmission timer is pending, then run the clock far past it. *)
  let sched = Scheduler.create () in
  let pool = Pool.create () in
  let sent = ref [] in
  let sg =
    Tcp_sender.create_group sched ~pool ~cc:Cc.Reno
      ~rto_params:Rto.default_params ~mss_bytes:1000 ~adv_window:8
      ~transmit:(fun ~flow:_ p -> sent := p :: !sent)
  in
  let s = Tcp_sender.attach sg ~flow:0 ~src:1 ~dst:0 () in
  Tcp_sender.write s 1;
  List.iter (Pool.free pool) !sent;
  sent := [];
  Tcp_sender.detach s;
  Scheduler.run ~until:(Time.of_sec 30.) sched;
  Alcotest.(check int) "no retransmission after detach" 0 (List.length !sent);
  Alcotest.(check int) "no packet leaked" 0 (Pool.live pool)

let group_recycled_row_is_fresh () =
  (* Detach then attach reuses the row; the newcomer must start from a
     clean window, not inherit the predecessor's counters. *)
  let sched = Scheduler.create () in
  let pool = Pool.create () in
  let sent = ref [] in
  let sg =
    Tcp_sender.create_group ~capacity:1 sched ~pool ~cc:Cc.Reno
      ~rto_params:Rto.default_params ~mss_bytes:1000 ~adv_window:8
      ~transmit:(fun ~flow:_ p -> sent := p :: !sent)
  in
  let a = Tcp_sender.attach sg ~flow:0 ~src:1 ~dst:0 () in
  Tcp_sender.write a 5;
  List.iter (Pool.free pool) !sent;
  sent := [];
  Tcp_sender.detach a;
  let b = Tcp_sender.attach sg ~flow:1 ~src:2 ~dst:0 () in
  check_float "fresh cwnd" 1. (Tcp_sender.cwnd b);
  Alcotest.(check int) "fresh backlog" 0 (Tcp_sender.backlog b);
  Alcotest.(check int) "fresh snd_una" 0 (Tcp_sender.snd_una b);
  Alcotest.(check int) "fresh stats" 0
    (Tcp_sender.stats b).Tcp_stats.segments_sent;
  Alcotest.check_raises "old handle is dead" stale_exn (fun () ->
      ignore (Tcp_sender.flight a));
  Tcp_sender.detach b;
  List.iter (Pool.free pool) !sent

let receiver_rejects_seq_beyond_window () =
  let rh = make_receiver () in
  (* adv_window 64 -> reassembly table of 128 slots; a segment 128 past
     expected cannot be represented and must fail loudly. *)
  Alcotest.check_raises "beyond reassembly window"
    (Invalid_argument "Tcp_receiver: sequence beyond reassembly window")
    (fun () -> recv rh 128)

(* ------------------------------------------------------------------ *)
(* Udp *)

let udp_immediate_transmission () =
  let sched = Scheduler.create () in
  let pool = Pool.create () in
  let out = ref [] in
  let s =
    Udp.create_sender sched ~pool ~flow:0 ~src:1 ~dst:0 ~size_bytes:500
      ~transmit:(fun p -> out := p :: !out)
  in
  Udp.write s 3;
  Alcotest.(check int) "all sent now" 3 (List.length !out);
  Alcotest.(check int) "sent counter" 3 (Udp.sent s);
  let r = Udp.create_receiver ~pool () in
  List.iter (Udp.handle_packet r) !out;
  List.iter (Pool.free pool) !out;
  Alcotest.(check int) "received" 3 (Udp.received r);
  Alcotest.(check int) "drained" 0 (Pool.live pool)

let udp_ignores_tcp () =
  let pool = Pool.create () in
  let r = Udp.create_receiver ~pool () in
  let p =
    Pool.alloc_ack pool ~flow:0 ~src:1 ~dst:0 ~size_bytes:40 ~sent_at:Time.zero
      ~ack:1 ~ece:false ~sack:[] ()
  in
  Udp.handle_packet r p;
  Pool.free pool p;
  Alcotest.(check int) "not counted" 0 (Udp.received r)

let suite =
  [
    ( "transport.rto",
      [
        Alcotest.test_case "initial value" `Quick rto_before_samples;
        Alcotest.test_case "after samples" `Quick rto_after_sample;
        Alcotest.test_case "backoff doubles and caps" `Quick rto_backoff_doubles_and_caps;
        Alcotest.test_case "sample resets backoff" `Quick rto_sample_resets_backoff;
        Alcotest.test_case "quantization" `Quick rto_quantization;
        Alcotest.test_case "min clamp" `Quick rto_min_clamp;
        QCheck_alcotest.to_alcotest rto_oracle_property;
      ] );
    ( "transport.cc",
      [
        Alcotest.test_case "reno slow start / avoidance" `Quick reno_slow_start_then_avoidance;
        Alcotest.test_case "reno max window cap" `Quick reno_caps_at_max_window;
        Alcotest.test_case "reno fast recovery cycle" `Quick reno_fast_recovery_cycle;
        Alcotest.test_case "reno timeout reset" `Quick reno_timeout_resets;
        Alcotest.test_case "halving floor of 2" `Quick reno_halving_floor;
        Alcotest.test_case "tahoe restarts slow start" `Quick tahoe_loss_restarts_slow_start;
        Alcotest.test_case "newreno partial ack" `Quick newreno_partial_ack;
        Alcotest.test_case "vegas epoch adjustments" `Quick vegas_epoch_adjustments;
        Alcotest.test_case "vegas gentler recovery" `Quick vegas_gentler_recovery;
        Alcotest.test_case "vegas parameter validation" `Quick vegas_rejects_bad_params;
      ] );
    ( "transport.sender",
      [
        Alcotest.test_case "initial window of one" `Quick sender_initial_window_one;
        Alcotest.test_case "slow-start doubling" `Quick sender_slow_start_doubling;
        Alcotest.test_case "advertised window cap" `Quick sender_respects_adv_window;
        Alcotest.test_case "fast retransmit on 3 dup ACKs" `Quick
          sender_fast_retransmit_on_three_dupacks;
        Alcotest.test_case "timeout and exponential backoff" `Quick sender_timeout_and_backoff;
        Alcotest.test_case "no timeout when idle" `Quick sender_no_timeout_when_idle;
        Alcotest.test_case "old acks ignored" `Quick sender_ignores_old_acks;
        Alcotest.test_case "dup acks need outstanding data" `Quick
          sender_dupacks_ignored_when_nothing_outstanding;
        Alcotest.test_case "tahoe loss handling" `Quick sender_tahoe_no_recovery_state;
        Alcotest.test_case "cwnd trace recorded" `Quick sender_cwnd_trace_records;
        Alcotest.test_case "cwnd trace off by default" `Quick sender_cwnd_trace_off_by_default;
        Alcotest.test_case "ece halves once per rtt" `Quick sender_ece_halves_once_per_rtt;
        Alcotest.test_case "rfc2861 validation" `Quick sender_cwnd_validation_blocks_idle_growth;
        Alcotest.test_case "rejects bad rto params" `Quick
          sender_rejects_bad_rto_params;
        Alcotest.test_case "pacing spreads the window" `Quick sender_pacing_spreads_window;
        Alcotest.test_case "paced transfer completes" `Quick loop_pacing_transfer_completes;
        Alcotest.test_case "ece on dup ack" `Quick sender_non_ecn_ignores_ece;
      ] );
    ( "transport.receiver",
      [
        Alcotest.test_case "in-order delivery" `Quick receiver_in_order;
        Alcotest.test_case "out-of-order dup acks" `Quick receiver_out_of_order_dup_acks;
        Alcotest.test_case "duplicate data re-acked" `Quick receiver_duplicate_data;
        Alcotest.test_case "delayed ack every second segment" `Quick
          receiver_delayed_ack_every_second;
        Alcotest.test_case "delayed ack 200ms timer" `Quick receiver_delayed_ack_timer;
        Alcotest.test_case "out-of-order acked immediately" `Quick
          receiver_delayed_ack_ooo_immediate;
        Alcotest.test_case "ce echoed as ece once" `Quick receiver_echoes_ce_as_ece;
      ] );
    ( "transport.loop",
      [
        Alcotest.test_case "lossless bulk transfer" `Quick loop_lossless_transfer;
        Alcotest.test_case "single loss -> fast retransmit" `Quick
          loop_single_loss_fast_retransmit;
        Alcotest.test_case "tail loss -> timeout" `Quick loop_loss_of_last_segment_needs_timeout;
        Alcotest.test_case "reno survives 5% random loss" `Slow loop_reno_random_loss;
        Alcotest.test_case "newreno survives 10% random loss" `Slow loop_newreno_random_loss;
        Alcotest.test_case "tahoe survives 5% random loss" `Slow loop_tahoe_random_loss;
        Alcotest.test_case "vegas survives 5% random loss" `Slow loop_vegas_random_loss;
        Alcotest.test_case "30% loss still completes" `Slow loop_heavy_loss_still_completes;
      ] );
    ( "transport.sack",
      [
        Alcotest.test_case "receiver reports blocks" `Quick receiver_sack_blocks;
        Alcotest.test_case "no blocks when disabled" `Quick
          receiver_no_sack_blocks_when_disabled;
        Alcotest.test_case "multi-loss recovery without timeout" `Quick
          sack_recovers_multiple_losses_without_timeout;
        Alcotest.test_case "reno contrast case" `Quick reno_same_losses_needs_timeout;
        Alcotest.test_case "random loss completeness" `Slow sack_random_loss_completes;
      ] );
    ( "transport.group",
      [
        Alcotest.test_case "attach/detach accounting" `Quick
          group_attach_detach_accounting;
        Alcotest.test_case "detached flow raises" `Quick group_detached_flow_raises;
        Alcotest.test_case "detach cancels timers" `Quick group_detach_cancels_timers;
        Alcotest.test_case "recycled row starts fresh" `Quick group_recycled_row_is_fresh;
        Alcotest.test_case "seq beyond reassembly window" `Quick
          receiver_rejects_seq_beyond_window;
      ] );
    ( "transport.udp",
      [
        Alcotest.test_case "immediate transmission" `Quick udp_immediate_transmission;
        Alcotest.test_case "ignores tcp packets" `Quick udp_ignores_tcp;
      ] );
  ]
