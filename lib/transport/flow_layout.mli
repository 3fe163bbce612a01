(** Row layouts for the TCP sender/receiver flow tables.

    Each value is an index into a flow's int row or float row in a
    {!Netsim.Flow_table} (see that module for the slab itself). The
    engine, the congestion-control policies and the RTO estimator all
    address state through these, so the layout is defined exactly once.

    Sender int row: [sender_ints] fixed cells, then the aux region —
    [seq_table_size] send-time cells and two [bitset_words]-sized
    bitsets (SACK scoreboard, retransmitted-in-recovery). Sender float
    row: [sender_floats] cells, extended to [vegas_floats] for Vegas.
    Receiver int row: [receiver_ints] cells plus one bitset. *)

(** {2 Sender ints} *)

val si_flow : int

val si_src : int

val si_dst : int

val si_next_seq : int

val si_snd_una : int

val si_max_sent : int

val si_app_submitted : int

val si_dup_acks : int

val si_recover : int

val si_high_sacked : int

val si_flags : int

val si_last_paced : int

val si_rto_timer : int

val si_pace_timer : int

val si_sacked : int

val si_ecn_reactions : int

val si_segments_sent : int

val si_retransmits : int

val si_timeouts : int

val si_fast_retransmits : int

val si_dup_acks_stat : int

val si_acks_received : int

val si_segments_acked : int

val sender_ints : int
(** Fixed int cells per sender row (the aux region follows). *)

(** {2 Sender flag bits ([si_flags])} *)

val fl_in_recovery : int

val fl_timed_out : int

val fl_trace : int

val fl_have_rtt : int

val fl_phase_shift : int
(** Lifecycle phase is stored as [phase + 1] (0 = none) in
    [fl_phase_mask] bits starting here. *)

val fl_phase_mask : int

(** {2 Float cells} *)

val f_cwnd : int

val f_ssthresh : int

val f_srtt : int

val f_rttvar : int

val f_backoff : int

val f_ecn_holdoff : int

val sender_floats : int
(** Float cells for Tahoe/Reno/NewReno/SACK rows. *)

val f_base_rtt : int

val f_epoch_sum : int

val f_epoch_n : int

val f_epoch_mark : int

val f_vss : int

val f_vgrow : int

val vegas_floats : int
(** Float cells for Vegas rows (epoch estimator appended). *)

(** {2 Receiver ints} *)

val ri_flow : int

val ri_src : int

val ri_dst : int

val ri_expected : int

val ri_unacked : int

val ri_delack_timer : int

val ri_acks_sent : int

val ri_duplicates : int

val ri_flags : int

val ri_ooo_count : int

val receiver_ints : int

val rfl_pending_ece : int

(** {2 Aux sizing} *)

val next_pow2 : int -> int
(** Smallest power of two >= n, at least 16. *)

val seq_table_size : adv_window:int -> int
(** Direct-mapped sequence-table size: [next_pow2 (adv_window + 4)],
    collision-free for the [<= adv_window] live-sequence span. *)

val bitset_words : int -> int
(** Words for an [n]-bit bitset at 32 bits per word. *)
