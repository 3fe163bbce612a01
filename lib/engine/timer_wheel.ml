(* Hierarchy layout: level [l] buckets cover [quantum * 2^(sb*l)]
   nanoseconds each, and a bucket's index is taken from the {e absolute}
   bits of the item's time — [(time lsr shift l) land mask] — not from
   an offset relative to the cursor. Absolute indexing is what makes
   lazy advancing cheap: crossing an {e empty} bucket boundary requires
   no bookkeeping at all, so the cursor teleports directly between
   occupied boundaries instead of stepping one quantum at a time.

   Buckets are LIFO singly-linked lists threaded through [next]; an
   item's firing time is kept in [times] so cascading can re-place it.
   Each level keeps an item count (to skip empty levels) and an
   occupancy bitmap, one bit per bucket in 32-bit words, from which
   [next_boundary] reads the next occupied bucket without touching the
   bucket heads. Nothing on the park/advance path allocates: the loops
   are top-level functions, not closures. *)

(* The wheel's shape: a 2^21 ns (~2.1 ms) quantum, 2^7 = 128 buckets
   per level and 4 levels. Level 0 spans 2^28 ns (~268 ms), so a
   250 ms link hop parks once, at level 0, and never cascades; the
   addressable horizon is 2^49 ns, about 6.5 simulated days, far beyond
   the 64 s maximum RTO backoff. *)
let qb = 21 (* log2 quantum, ns *)

let sb = 7 (* log2 buckets per level; at least [wb] *)

let levels = 4

let spl = 1 lsl sb (* buckets per level *)

let mask = spl - 1

let wb = 5 (* log2 bits per occupancy word *)

let wpl = spl lsr wb (* occupancy words per level *)

let quantum_ns = 1 lsl qb

let buckets_per_level = spl

let horizon_ns = 1 lsl (qb + (sb * levels))

type t = {
  heads : int array; (* levels * spl bucket heads; -1 = empty *)
  occ : int array; (* levels * wpl words; bit set = bucket non-empty *)
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
    occ = Array.make (levels * wpl) 0;
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

(* Count trailing zeros of a non-zero 32-bit word: isolate its lowest
   set bit, multiply by a de Bruijn sequence, and look the product's top
   five bits up in a 32-entry table. *)
let debruijn = 0x077CB531

let ctz_table =
  let t = Array.make 32 0 in
  for i = 0 to 31 do
    t.((((1 lsl i) * debruijn) land 0xFFFF_FFFF) lsr 27) <- i
  done;
  t

let ctz w = ctz_table.((((w land (-w)) * debruijn) land 0xFFFF_FFFF) lsr 27)

(* The first set bit from whole word [w] of the level at [base] on,
   cyclically. *)
let rec scan_words t base w =
  let bits = t.occ.(base + w) in
  if bits <> 0 then (w lsl wb) + ctz bits
  else scan_words t base ((w + 1) land (wpl - 1))

(* The first occupied bucket of level [l] at or after index [start],
   cyclically, so index [start - 1] comes last. The level must hold an
   item, or the scan would not end. *)
let first_occupied t l start =
  let base = l * wpl and w = start lsr wb in
  let bits = t.occ.(base + w) land (-1 lsl (start land 31)) in
  if bits <> 0 then (w lsl wb) + ctz bits
  else scan_words t base ((w + 1) land (wpl - 1))

(* The finest level whose ring spans a delay of [d]. *)
let rec level_of d l = if d < 1 lsl shift (l + 1) then l else level_of d (l + 1)

(* Park [item] in the finest-grained level whose ring spans its delay.
   Requires [cursor <= time < cursor + horizon]. While the cursor is
   not aligned to a level's bucket span, an item can land in the
   cursor's own bucket of that level, due a full ring lap later;
   [next_boundary] counts that bucket last for exactly this reason. *)
let place t item time =
  let l = level_of (time - t.cursor) 0 in
  let i = (time lsr shift l) land mask in
  let bucket = (l * spl) + i in
  t.times.(item) <- time;
  t.next.(item) <- t.heads.(bucket);
  t.heads.(bucket) <- item;
  let w = (l * wpl) + (i lsr wb) in
  t.occ.(w) <- t.occ.(w) lor (1 lsl (i land 31));
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

(* Empty bucket [i] of level [l]; returns its list. *)
let take_bucket t l i =
  let bucket = (l * spl) + i in
  let head = t.heads.(bucket) in
  t.heads.(bucket) <- -1;
  let w = (l * wpl) + (i lsr wb) in
  t.occ.(w) <- t.occ.(w) land lnot (1 lsl (i land 31));
  head

(* Re-place every item of a list taken from level [l]. *)
let rec relocate t l item =
  if item >= 0 then begin
    let next = t.next.(item) in
    t.lcount.(l) <- t.lcount.(l) - 1;
    place t item t.times.(item);
    relocate t l next
  end

(* Hand every item of a list taken from level 0 to [flush]. *)
let rec expire t item flush =
  if item >= 0 then begin
    let next = t.next.(item) in
    t.lcount.(0) <- t.lcount.(0) - 1;
    t.count <- t.count - 1;
    flush item;
    expire t next flush
  end

(* The earliest future bucket start among all occupied buckets: for
   level [l], with [cur] the cursor's absolute bucket number there and
   [idx] its index in the ring, the first occupied index [j] after
   [idx] is entered next at [(cur + dist) * span], [dist] in [1, spl].
   The cursor's own bucket comes last, a full lap ([dist = spl]) away:
   at level 0 it has just been drained, and at a higher level it was
   cascaded when entered, so what it holds now is due a lap later. *)
let next_boundary t =
  let best = ref max_int in
  for l = 0 to levels - 1 do
    if t.lcount.(l) > 0 then begin
      let sh = shift l in
      let cur = t.cursor lsr sh in
      let idx = cur land mask in
      let j = first_occupied t l ((idx + 1) land mask) in
      let b = (cur + ((j - idx - 1) land mask) + 1) lsl sh in
      if b < !best then best := b
    end
  done;
  !best

(* The cursor sits on boundary [b]. Cascade every level whose bucket
   also starts at [b], top level first, re-placing items one level
   finer: a level-3 bucket spills into the level-2 bucket being
   entered, which spills into level 1, and so on down to level 0, whose
   bucket the caller drains next. Run at every step (not just after a
   jump): a previous [advance] may have parked the cursor exactly on an
   occupied boundary it never entered. Idempotent — already-cascaded
   buckets are empty. *)
let cascade t =
  let b = t.cursor in
  for l = levels - 1 downto 1 do
    if t.lcount.(l) > 0 && b land ((1 lsl shift l) - 1) = 0 then begin
      let i = (b lsr shift l) land mask in
      if t.heads.((l * spl) + i) >= 0 then relocate t l (take_bucket t l i)
    end
  done

(* One step per occupied boundary up to [upto]: cascade into the
   cursor's level-0 bucket, expire it, jump to the next occupied
   boundary. With [first], stop after the first bucket that held
   anything, cursor on that bucket's end. *)
let rec run t upto first flush =
  cascade t;
  let i = (t.cursor lsr qb) land mask in
  let head = t.heads.(i) in
  if head >= 0 then expire t (take_bucket t 0 i) flush;
  (* An emptied wheel leaves the cursor where the last work was; it
     only needs to track the flush frontier loosely. *)
  if t.count > 0 then
    if first && head >= 0 then t.cursor <- t.cursor + quantum_ns
    else begin
      let b = next_boundary t in
      if b > upto then
        (* Nothing further is due; park just past [upto] so the next
           [advance] resumes from the frontier. *)
        t.cursor <- ((upto lsr qb) + 1) lsl qb
      else begin
        t.cursor <- b;
        run t upto first flush
      end
    end

let advance t ~upto_ns ~flush =
  let upto = if upto_ns > ceiling then ceiling else upto_ns in
  if t.count > 0 && t.cursor <= upto then run t upto false flush

let advance_first t ~upto_ns ~flush =
  let upto = if upto_ns > ceiling then ceiling else upto_ns in
  if t.count > 0 && t.cursor <= upto then run t upto true flush
