(** The parking-lot topology: one long flow crossing H bottleneck hops,
    with independent cross traffic on every hop.

    {v
      long ---> [R0] ==hop 0==> [R1] ==hop 1==> ... ==hop H-1==> [RH] ---> long'
                 ^                ^  \                            ^
               cross_0         cross_1  cross_0'               cross_{H-1}'
    v}

    The classic multi-hop fairness question: the long flow competes at
    every hop and sees the sum of all queueing delays, so loss-driven
    congestion control (Reno) starves it relative to the one-hop cross
    flows, while Vegas' delay-based control is gentler. This generalizes
    the paper's single-gateway model and exercises the router layer on
    arbitrary chains. All flows are greedy bulk transfers. *)

type result = {
  hops : int;
  long_throughput_pps : float;
  cross_throughput_pps : float;  (** mean over all cross flows *)
  long_share : float;
      (** long flow's throughput over its equal share of one hop's
          capacity divided by (1 + cross flows per hop) *)
  jain_all : float;  (** fairness across every flow *)
}

val run :
  Config.t ->
  cc:Scenario.cc_kind ->
  hops:int ->
  cross_per_hop:int ->
  result
(** Runs for [cfg.duration_s] and measures throughput over its second
    half. Bottleneck links reuse Table 1's bandwidth/delay/buffer per
    hop; hosts are wired from {!Dumbbell}'s pieces, with 10 ms access
    links. The advertised window is 600
    packets (well above the multi-hop bandwidth-delay product) so flows
    are congestion-limited, not receiver-limited.
    @raise Invalid_argument if [hops < 1] or [cross_per_hop < 0]. *)

val report : Format.formatter -> Config.t -> unit
(** Reno / NewReno / SACK / Vegas over 2-4 hops, one cross flow per
    hop, each run for [cfg.duration_s]. *)
