(** A growable circular FIFO of [int]s, for packet handles on hot
    paths.

    [Stdlib.Queue] allocates a 3-word cell per [push]; on the simulator's
    per-packet paths that is measurable GC traffic. A ring keeps its
    elements in a flat [int array] whose power-of-two capacity doubles
    on overflow, so the steady state allocates nothing, a store needs no
    write barrier, and a slot index is a mask, not a division. The
    array is first sized on the first {!push}. *)

type t

val create : unit -> t

val length : t -> int

val is_empty : t -> bool

val push : t -> int -> unit
(** Append at the tail; amortised O(1), allocation-free except when the
    backing array doubles. *)

val pop_exn : t -> int
(** Remove and return the head.
    @raise Invalid_argument when empty. *)
