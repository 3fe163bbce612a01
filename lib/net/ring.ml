(* A growable circular FIFO of [int]s — packet handles. Unlike
   [Stdlib.Queue] (one 3-word cell per push) the steady state allocates
   nothing: elements live in a flat [int array] that doubles on
   overflow. An [int array] store needs no write barrier and no
   float-array check, and the capacity is a power of two, so a slot is
   [index land mask], not an integer [mod]. The backing array starts
   empty and is first sized on the first push. *)

type t = {
  mutable buf : int array; (* [||] until the first push *)
  mutable mask : int; (* [Array.length buf - 1] *)
  mutable head : int; (* index of the next element to pop *)
  mutable len : int;
}

let create () = { buf = [||]; mask = -1; head = 0; len = 0 }

let length t = t.len

let is_empty t = t.len = 0

let grow t =
  let cap = Array.length t.buf in
  let nbuf = Array.make (Stdlib.max 8 (2 * cap)) 0 in
  for i = 0 to t.len - 1 do
    nbuf.(i) <- t.buf.((t.head + i) land t.mask)
  done;
  t.buf <- nbuf;
  t.mask <- Array.length nbuf - 1;
  t.head <- 0

let push t x =
  if t.len = Array.length t.buf then grow t;
  t.buf.((t.head + t.len) land t.mask) <- x;
  t.len <- t.len + 1

let pop_exn t =
  if t.len = 0 then invalid_arg "Ring.pop_exn: empty";
  let x = t.buf.(t.head) in
  t.head <- (t.head + 1) land t.mask;
  t.len <- t.len - 1;
  x
