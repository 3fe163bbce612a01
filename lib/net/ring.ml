(* A growable circular FIFO. Unlike [Stdlib.Queue] (one 3-word cell per
   push) the steady state allocates nothing: elements live in a flat
   array that doubles on overflow. The backing array starts empty and is
   first sized on the first push, which also supplies the fill element —
   so no dummy value and no [Obj.magic]. A popped slot keeps its pointer
   until the slot is reused; for packet-sized elements that bounded
   retention is irrelevant. *)

type 'a t = {
  mutable buf : 'a array; (* [||] until the first push *)
  mutable head : int; (* index of the next element to pop *)
  mutable len : int;
}

let create () = { buf = [||]; head = 0; len = 0 }

let length t = t.len

let is_empty t = t.len = 0

let grow t x =
  let cap = Array.length t.buf in
  let nbuf = Array.make (Stdlib.max 8 (2 * cap)) x in
  for i = 0 to t.len - 1 do
    nbuf.(i) <- t.buf.((t.head + i) mod cap)
  done;
  t.buf <- nbuf;
  t.head <- 0

let push t x =
  if t.len = Array.length t.buf then grow t x;
  t.buf.((t.head + t.len) mod Array.length t.buf) <- x;
  t.len <- t.len + 1

let pop_exn t =
  if t.len = 0 then invalid_arg "Ring.pop_exn: empty";
  let x = t.buf.(t.head) in
  t.head <- (t.head + 1) mod Array.length t.buf;
  t.len <- t.len - 1;
  x
