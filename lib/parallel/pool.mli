(** The domain runtime: a long-lived team of OCaml 5 domains.

    A {!Team} runs one body per rank across [domains] domains (rank 0 is
    the calling domain) and lets the bodies meet at {!Team.barrier} as
    many times as they like — the shape a windowed conservative PDES run
    needs: K domains simulating in lockstep time windows, rendezvousing
    twice per window, with no per-window domain spawns. A parallel sweep
    is one team run too: {!Team.map} lets every rank claim the next
    unclaimed list element, so [-j] sweeps and [--shards] runs share the
    same parked domains and the same failure handling.

    Exceptions propagate mid-window: the first body to raise marks the
    team aborted and wakes every rank blocked in (or later entering)
    {!Team.barrier} with {!Team.Aborted}, so all ranks unwind promptly
    instead of deadlocking on a rendezvous that can never complete;
    {!Team.run} then re-raises the original exception in the caller. *)
module Team : sig
  type t

  exception Aborted
  (** Raised by {!barrier} in the surviving ranks after another rank's
      body raised. A body may let it escape (it is swallowed by the
      team) or use it to release rank-local resources first. *)

  val create : domains:int -> t
  (** Spawn [domains - 1] parked worker domains; the caller completes
      the team as rank 0.
      @raise Invalid_argument when [domains < 1]. *)

  val size : t -> int

  val run : t -> (int -> unit) -> unit
  (** [run t body] executes [body rank] on every rank ([0] on the
      calling domain, [1 .. domains-1] on the workers) and returns when
      all of them have finished. If any body raises, the first exception
      observed is re-raised here after every rank has unwound. The team
      is reusable afterwards, also after a failed run.
      @raise Invalid_argument if the team is shut down or a run is
      already in progress. *)

  val barrier : t -> unit
  (** Rendezvous of all ranks; callable only from inside a {!run} body.
      Returns once every rank has arrived. Mutations made by any rank
      before the barrier are visible to every rank after it.
      @raise Aborted when another rank's body raised. *)

  val map : t -> ('a -> 'b) -> 'a list -> 'b list
  (** [map t f xs] is [List.map f xs] computed as one {!run}: every rank
      claims the next unclaimed element until none is left, and each
      result lands at its input position, so the returned list is in
      input order whichever rank ran which element; on a one-domain team
      the caller runs the elements in order. An element whose [f] raises
      is recorded and its rank moves on, so every other element still
      runs; the first exception recorded is re-raised once the run has
      returned. Built for coarse elements (whole simulation runs); [f]
      must not touch mutable state shared between elements.
      @raise Invalid_argument if the team is shut down or a run is in
      progress — so also when [f] calls [map] on the same team. *)

  val shutdown : t -> unit
  (** Join all worker domains. Idempotent; the team is unusable after. *)

  val with_team : domains:int -> (t -> 'a) -> 'a
  (** [with_team ~domains f] runs [f] with a fresh team and shuts it
      down afterwards, also on exception. *)
end
