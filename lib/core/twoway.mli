(** Two-way traffic through the gateway (Zhang, Shenker & Clark 1991).

    The paper's model sends data in one direction only, so ACKs ride an
    uncongested reverse path. Real distributed systems are bidirectional:
    reverse-direction data queues ACKs behind it ("ACK compression"),
    which releases forward data in clumps and adds burstiness beyond
    anything the forward path does on its own. This experiment adds M
    reverse Poisson/TCP flows whose data crosses the reverse bottleneck
    (where the forward ACKs live) and whose ACKs cross the forward
    bottleneck (competing with forward data). *)

type result = {
  forward_clients : int;
  reverse_clients : int;
  forward_cov : float;  (** c.o.v. of forward data per RTT at the gateway *)
  analytic_cov : float;  (** Poisson baseline for the forward aggregate *)
  forward_delivered : int;
  forward_loss_pct : float;  (** forward-bottleneck drops / arrivals *)
  reverse_delivered : int;
}

val run :
  Config.t -> cc:Scenario.cc_kind -> reverse_clients:int -> result
(** Forward clients come from [cfg.clients]; both directions run the same
    TCP variant over Table 1 links with drop-tail gateways on both
    bottleneck directions. Hosts are wired from {!Dumbbell}'s pieces,
    so the groups take their options from [cfg] and [cc] as the
    dumbbell's do. @raise Invalid_argument if [reverse_clients < 0]. *)

val report : Format.formatter -> Config.t -> unit
(** Forward burstiness and performance with 0, N/2 and N reverse flows
    (N = [cfg.clients] forward clients), for Reno and Vegas. *)
