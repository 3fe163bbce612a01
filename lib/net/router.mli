(** Static-route packet forwarding.

    The gateway in the paper's dumbbell is a router with one route per
    client (the reverse direction) plus a default route onto the bottleneck
    link. Forwarding passes handle ownership straight to the outgoing
    link; the router itself never frees. *)

type t

val create :
  ?recorder:Telemetry.Recorder.t -> name:string -> pool:Packet_pool.t -> unit -> t
(** When [recorder] is given in lifecycle mode, retransmitted data
    segments forwarded by the router write a [router_rtx_forward]
    lifecycle record stamped with the segment's send time; a parity-only
    recorder leaves the router unwired. *)

val add_route : t -> dst:int -> Link.t -> unit
(** Packets addressed to node [dst] are forwarded on the given link.
    Routes live in an array indexed by [dst], so node ids should be
    small and dense.
    @raise Invalid_argument if [dst < 0] or a route for [dst] already
    exists. *)

val set_default : t -> Link.t -> unit
(** Route for destinations with no explicit entry. *)

val receive : t -> Packet_pool.handle -> unit
(** Forward a packet. @raise Failure if no route matches. *)

val forwarded : t -> int
