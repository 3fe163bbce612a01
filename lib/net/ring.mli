(** A growable circular FIFO for hot paths.

    [Stdlib.Queue] allocates a 3-word cell per [push]; on the simulator's
    per-packet paths that is measurable GC traffic. A ring keeps its
    elements in a flat array that doubles on overflow, so the steady
    state allocates nothing. The array is first sized on the first
    {!push} (which supplies the fill element), and a popped slot retains
    its element until the slot is reused — bounded retention, not a
    leak. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Append at the tail; amortised O(1), allocation-free except when the
    backing array doubles. *)

val pop_exn : 'a t -> 'a
(** Remove and return the head.
    @raise Invalid_argument when empty. *)
