(* Row layouts for the TCP sender/receiver flow tables
   ({!Netsim.Flow_table}). One module owns every index so the engine
   (Tcp_sender/Tcp_receiver), the congestion-control policies (Cc) and
   the RTO estimator (Rto) agree on where each field lives without
   threading records around.

   A sender row is [sender_ints] fixed int cells followed by a
   variable-size aux region (send-time table + two bitsets, sized from
   the advertised window), and [sender_floats] (or [vegas_floats])
   unboxed float cells. A receiver row is [receiver_ints] int cells
   followed by one bitset. *)

(* ------------------------------------------------------------------ *)
(* Sender int cells *)

let si_flow = 0

let si_src = 1

let si_dst = 2

let si_next_seq = 3 (* next new segment to put on the wire *)

let si_snd_una = 4 (* lowest unacknowledged sequence *)

let si_max_sent = 5 (* 1 + highest sequence ever transmitted *)

let si_app_submitted = 6

let si_dup_acks = 7

let si_recover = 8 (* highest seq outstanding when recovery began *)

let si_high_sacked = 9 (* highest sequence the receiver has SACKed; -1 none *)

let si_flags = 10 (* bit salad; see fl_* below *)

let si_last_paced = 11 (* tick of last paced send; Time.never until first *)

let si_rto_timer = 12 (* Scheduler.handle as int; nil = unarmed *)

let si_pace_timer = 13

let si_sacked = 14 (* live scoreboard population (for the pipe estimate) *)

let si_ecn_reactions = 15

(* Tcp_stats counters *)

let si_segments_sent = 16

let si_retransmits = 17

let si_timeouts = 18

let si_fast_retransmits = 19

let si_dup_acks_stat = 20

let si_acks_received = 21

let si_segments_acked = 22

let sender_ints = 23

(* Sender flag bits (si_flags) *)

let fl_in_recovery = 1

let fl_timed_out = 2 (* post-timeout hole; cleared by the next new ACK *)

let fl_trace = 4 (* this flow records a (time, cwnd) trace *)

let fl_have_rtt = 8 (* the RTO estimator has seen a sample *)

(* Last recorded lifecycle phase, stored as [phase + 1] (0 = none yet)
   in 3 bits above the booleans. *)
let fl_phase_shift = 4

let fl_phase_mask = 7

(* ------------------------------------------------------------------ *)
(* Float cells (both CC and RTO state; all variants share 0..5) *)

let f_cwnd = 0

let f_ssthresh = 1

let f_srtt = 2

let f_rttvar = 3

let f_backoff = 4 (* RTO multiplier: 1, 2, 4 ... 64 *)

let f_ecn_holdoff = 5 (* seconds; react to ECE at most once per RTT *)

let sender_floats = 6

(* Vegas appends its epoch estimator; the booleans live as 0./1. floats
   so every CC mutation touches one region. Counters and sequence marks
   stay exact as doubles far past any run length. *)

let f_base_rtt = 6 (* min RTT seen; infinity until first sample *)

let f_epoch_sum = 7

let f_epoch_n = 8

let f_epoch_mark = 9 (* epoch ends when the cumulative ACK passes it *)

let f_vss = 10 (* in Vegas slow start *)

let f_vgrow = 11 (* slow start doubles only every other RTT *)

let vegas_floats = 12

(* ------------------------------------------------------------------ *)
(* Receiver int cells *)

let ri_flow = 0

let ri_src = 1

let ri_dst = 2

let ri_expected = 3 (* next in-order sequence = cumulative ACK value *)

let ri_unacked = 4 (* in-order segments not yet ACKed *)

let ri_delack_timer = 5

let ri_acks_sent = 6

let ri_duplicates = 7

let ri_flags = 8

let ri_ooo_count = 9 (* population of the out-of-order bitset *)

let receiver_ints = 10

let rfl_pending_ece = 1 (* a CE-marked segment arrived; echo it *)

(* ------------------------------------------------------------------ *)
(* Aux sizing *)

let next_pow2 n =
  let rec go v = if v >= n then v else go (v * 2) in
  go 16

(* Live sequences span [snd_una, max_sent) <= adv_window; with the +4
   margin, direct-mapped [seq land mask] addressing stays
   collision-free. The receiver's out-of-order range obeys the same
   bound, so both sides share the sizing. *)
let seq_table_size ~adv_window = next_pow2 (adv_window + 4)

(* Bitsets pack 32 seqs per word: [1 lsl (i land 31)] never touches the
   OCaml int's sign bit. *)
let bitset_words n = (n + 31) / 32
