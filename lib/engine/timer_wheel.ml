(* Hierarchy layout: level [l] buckets cover [quantum * 2^(slot_bits*l)]
   nanoseconds each, and a bucket's index is taken from the {e absolute}
   bits of the item's time — [(time lsr shift l) land mask] — not from
   an offset relative to the cursor. Absolute indexing is what makes
   lazy advancing cheap: crossing an {e empty} bucket boundary requires
   no bookkeeping at all, so the cursor teleports directly between
   occupied boundaries instead of stepping one quantum at a time.

   Buckets are LIFO singly-linked lists threaded through [next]; an
   item's firing time is kept in [times] so cascading can re-place it.
   Per-level item counts let [next_boundary] skip empty levels. *)

(* The wheel's shape: a 2^20 ns (~1.05 ms) quantum, 2^6 = 64 buckets
   per level and 4 levels — an addressable horizon of 2^44 ns, about
   4.9 simulated hours, far beyond the 64 s maximum RTO backoff. *)
let qb = 20 (* log2 quantum, ns *)

let sb = 6 (* log2 buckets per level *)

let levels = 4

let spl = 1 lsl sb (* buckets per level *)

let mask = spl - 1

let quantum_ns = 1 lsl qb

let horizon_ns = 1 lsl (qb + (sb * levels))

type t = {
  heads : int array; (* levels * spl bucket heads; -1 = empty *)
  lcount : int array; (* items parked per level *)
  mutable next : int array; (* per-item bucket link; -1 = end *)
  mutable times : int array; (* per-item firing time, ns *)
  mutable cap : int;
  mutable cursor : int; (* quantum-aligned expiry frontier *)
  mutable count : int;
}

(* Times at or beyond this never enter the wheel, which keeps every
   boundary computation (cursor + horizon, bucket starts) far from
   [max_int] overflow. 2^60 ns is ~36 simulated years. *)
let ceiling = max_int lsr 2

let create ?(capacity = 64) () =
  if capacity < 1 then invalid_arg "Timer_wheel.create: capacity < 1";
  {
    heads = Array.make (levels * spl) (-1);
    lcount = Array.make levels 0;
    next = Array.make capacity (-1);
    times = Array.make capacity 0;
    cap = capacity;
    cursor = 0;
    count = 0;
  }

let count t = t.count

let cursor_ns t = t.cursor

let ensure_capacity t n =
  if n > t.cap then begin
    let ncap = max n (2 * t.cap) in
    let extend a fill =
      let na = Array.make ncap fill in
      Array.blit a 0 na 0 t.cap;
      na
    in
    t.next <- extend t.next (-1);
    t.times <- extend t.times 0;
    t.cap <- ncap
  end

let time_ns t item = t.times.(item)

let shift l = qb + (l * sb)

(* Park [item] in the finest-grained level whose ring spans its delay.
   Requires [cursor <= time < cursor + horizon]. A delay in the ring's
   final, wrap-around bucket can land in (or just behind) the cursor's
   own bucket; that only means the item is flushed one ring-lap early —
   harmless, since the caller orders flushed items itself. *)
let place t item time =
  let d = time - t.cursor in
  let rec level l =
    if d < 1 lsl (shift (l + 1)) then l else level (l + 1)
  in
  let l = level 0 in
  let bucket = (l * spl) + ((time lsr shift l) land mask) in
  t.times.(item) <- time;
  t.next.(item) <- t.heads.(bucket);
  t.heads.(bucket) <- item;
  t.lcount.(l) <- t.lcount.(l) + 1

let add t ~item ~time_ns =
  if
    time_ns < t.cursor + quantum_ns
    || time_ns - t.cursor >= horizon_ns
    || time_ns >= ceiling
  then false
  else begin
    place t item time_ns;
    t.count <- t.count + 1;
    true
  end

(* Drain one bucket, handing every item to [k]. *)
let drain t bucket l k =
  let item = ref t.heads.(bucket) in
  if !item >= 0 then begin
    t.heads.(bucket) <- -1;
    while !item >= 0 do
      let it = !item in
      item := t.next.(it);
      t.next.(it) <- -1;
      t.lcount.(l) <- t.lcount.(l) - 1;
      k it
    done
  end

(* The earliest future bucket-start among all occupied buckets: for a
   bucket [j] at level [l], the next time the cursor enters it is
   [(cur + ((j - cur_idx) mod spl)) * span] where [cur] is the cursor's
   absolute bucket number at that level. The cursor's own bucket is
   skipped — at level 0 it has just been drained, and at higher levels
   it was cascaded when entered (an in-window item can never be placed
   there, only a wrap-around one, which is due a lap later anyway). *)
let next_boundary t =
  let best = ref max_int in
  for l = 0 to levels - 1 do
    if t.lcount.(l) > 0 then begin
      let sh = shift l in
      let cur = t.cursor lsr sh in
      let idx = cur land mask in
      let base = l * spl in
      for j = 0 to spl - 1 do
        if j <> idx && t.heads.(base + j) >= 0 then begin
          let b = (cur + ((j - idx) land mask)) lsl sh in
          if b < !best then best := b
        end
      done
    end
  done;
  !best

(* The cursor sits on boundary [b]. Cascade every level whose bucket
   also starts at [b], top level first, re-placing items one level
   finer: a level-3 bucket spills into the level-2 bucket being
   entered, which spills into level 1, and so on down to level 0, whose
   bucket the caller drains next. Run at every loop entry (not just
   after a jump): a previous [advance] may have parked the cursor
   exactly on an occupied boundary it never entered. Idempotent —
   already-cascaded buckets are empty. *)
let cascade t replace =
  let b = t.cursor in
  for l = levels - 1 downto 1 do
    if t.lcount.(l) > 0 && b land ((1 lsl shift l) - 1) = 0 then begin
      let bucket = (l * spl) + ((b lsr shift l) land mask) in
      drain t bucket l replace
    end
  done

let advance t ~upto_ns ~flush =
  let upto = if upto_ns > ceiling then ceiling else upto_ns in
  let continue = ref true in
  (* Both callbacks are built once per [advance], not per iteration. *)
  let replace it = place t it t.times.(it) in
  let expire it =
    t.count <- t.count - 1;
    flush it
  in
  while !continue && t.count > 0 && t.cursor <= upto do
    cascade t replace;
    (* Expire the cursor's level-0 bucket. *)
    drain t ((t.cursor lsr qb) land mask) 0 expire;
    if t.count = 0 then
      (* Leave the cursor where the last work was; it only needs to
         track the flush frontier loosely (far-behind cursors just make
         [add] place items in coarser levels). *)
      continue := false
    else begin
      let b = next_boundary t in
      if b > upto then begin
        (* Nothing further is due; park just past [upto] so the next
           [advance] resumes from the frontier. *)
        t.cursor <- ((upto lsr qb) + 1) lsl qb;
        continue := false
      end
      else t.cursor <- b
    end
  done
