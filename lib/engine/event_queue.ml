(* The pending-event set, stored as a slab of parallel arrays plus a
   binary min-heap of slot indices. Nothing on the schedule/pop cycle
   allocates once the slab has warmed up:

   - a scheduled event occupies a {e slot} — its time, sequence number,
     generation and action live in parallel arrays, not in a per-event
     record;
   - popped and cancelled slots are recycled through a free stack;
   - a handle is a single immediate [int] packing (slot, generation), so
     returning one from [schedule] costs nothing and a stale handle —
     one whose slot has since been recycled — is recognised by its
     generation and ignored by [cancel]/[is_pending].

   Cancellation stays lazy: a cancelled slot remains in the heap and is
   skipped (and only then recycled) when it surfaces. Slots popped by
   [pop_if_before] are recycled {e deferred} — at the next queue
   operation — so the caller can still read [time_of] and [fire] the
   action without the slot being reused under it.

   Far-out events — timers, mostly: RTOs, pacing gaps, delayed ACKs —
   are parked in a hierarchical {!Timer_wheel} instead of the heap, so
   scheduling them is O(1) instead of O(log heap). The wheel is purely
   a staging area: before any pop, [ready] advances it to the pop
   frontier and every due slot is flushed {e into the heap}, which
   still decides firing order by (time, seq). Observable behaviour is
   therefore bit-identical to a heap-only queue; the wheel only absorbs
   the churn of timers that are cancelled or re-armed long before they
   fire (a cancelled wheel slot is recycled when the cursor passes its
   bucket, the same lazy discipline as a cancelled heap slot). *)

(* A handle packs the generation in the low [gen_bits] bits and the slot
   index above them. Generations wrap at 2^30, so mistaking a stale
   handle for a live one takes a slot recycled exactly 2^30 times
   between taking and using the handle. *)
let gen_bits = 30

let gen_mask = (1 lsl gen_bits) - 1

type handle = int

type t = {
  mutable cap : int; (* slab capacity; all arrays below share it *)
  mutable at : Time.t array; (* per-slot scheduled time *)
  mutable seq : int array; (* per-slot schedule order; FIFO tie-break *)
  mutable gen : int array; (* per-slot recycle count *)
  mutable act : (unit -> unit) array;
  mutable kact : (int -> unit) array; (* keyed action; see [schedule_keyed] *)
  mutable karg : int array; (* keyed argument; [no_key] = plain action *)
  mutable dead : bool array; (* fired or cancelled *)
  mutable heap : int array; (* min-heap of slots, ordered by (at, seq) *)
  mutable heap_size : int;
  mutable free : int array; (* stack of recycled slots *)
  mutable free_top : int;
  mutable fresh : int; (* next never-used slot *)
  mutable deferred : int; (* slot awaiting recycle after pop_if_before *)
  mutable next_seq : int;
  mutable live : int;
  mutable hwm : int;
  wheel : Timer_wheel.t;
  mutable wflush : int -> unit; (* wheel->heap flusher, built once *)
  mutable wheel_parked : int; (* schedules absorbed by the wheel *)
  mutable growths : int; (* slab doublings since creation *)
}

let nop () = ()

let knop (_ : int) = ()

(* [karg] sentinel marking a slot whose action is the plain closure in
   [act]. [min_int] cannot collide with any packed flow/slot key. *)
let no_key = min_int

let length q = q.live

let is_empty q = q.live = 0

let high_water_mark q = q.hwm

let capacity q = q.cap

let growth_count q = q.growths

let wheel_parked q = q.wheel_parked

(* ------------------------------------------------------------------ *)
(* Slab bookkeeping *)

let grow q =
  let ncap = 2 * q.cap in
  let extend a fill =
    let na = Array.make ncap fill in
    Array.blit a 0 na 0 q.cap;
    na
  in
  q.at <- extend q.at Time.zero;
  q.seq <- extend q.seq 0;
  q.gen <- extend q.gen 0;
  q.act <- extend q.act nop;
  q.kact <- extend q.kact knop;
  q.karg <- extend q.karg no_key;
  q.dead <- extend q.dead true;
  q.heap <- extend q.heap 0;
  q.free <- extend q.free 0;
  q.cap <- ncap;
  q.growths <- q.growths + 1;
  Timer_wheel.ensure_capacity q.wheel ncap

(* Put [slot] back on the free stack; bumping the generation is what
   invalidates every handle to the slot's previous occupant. Dropping
   the action reference matters too: it is what lets a fired event's
   closure (and whatever it captured) be collected. *)
let recycle q slot =
  q.gen.(slot) <- q.gen.(slot) + 1;
  q.act.(slot) <- nop;
  q.kact.(slot) <- knop;
  q.karg.(slot) <- no_key;
  q.free.(q.free_top) <- slot;
  q.free_top <- q.free_top + 1

let flush_deferred q =
  if q.deferred >= 0 then begin
    recycle q q.deferred;
    q.deferred <- -1
  end

let alloc_slot q =
  if q.free_top > 0 then begin
    q.free_top <- q.free_top - 1;
    q.free.(q.free_top)
  end
  else begin
    if q.fresh = q.cap then grow q;
    let slot = q.fresh in
    q.fresh <- q.fresh + 1;
    slot
  end

(* ------------------------------------------------------------------ *)
(* Slot heap, ordered by (time, seq) *)

let lt q a b =
  let c = Time.compare q.at.(a) q.at.(b) in
  if c <> 0 then c < 0 else q.seq.(a) < q.seq.(b)

let rec sift_up q i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if lt q q.heap.(i) q.heap.(parent) then begin
      let tmp = q.heap.(i) in
      q.heap.(i) <- q.heap.(parent);
      q.heap.(parent) <- tmp;
      sift_up q parent
    end
  end

let rec sift_down q i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = if l < q.heap_size && lt q q.heap.(l) q.heap.(i) then l else i in
  let smallest =
    if r < q.heap_size && lt q q.heap.(r) q.heap.(smallest) then r else smallest
  in
  if smallest <> i then begin
    let tmp = q.heap.(i) in
    q.heap.(i) <- q.heap.(smallest);
    q.heap.(smallest) <- tmp;
    sift_down q smallest
  end

let heap_push q slot =
  q.heap.(q.heap_size) <- slot;
  q.heap_size <- q.heap_size + 1;
  sift_up q (q.heap_size - 1)

let heap_drop_top q =
  q.heap_size <- q.heap_size - 1;
  if q.heap_size > 0 then begin
    q.heap.(0) <- q.heap.(q.heap_size);
    sift_down q 0
  end

let create ?(capacity = 64) () =
  if capacity < 1 then invalid_arg "Event_queue.create: capacity < 1";
  let q =
    {
      cap = capacity;
      at = Array.make capacity Time.zero;
      seq = Array.make capacity 0;
      gen = Array.make capacity 0;
      act = Array.make capacity nop;
      kact = Array.make capacity knop;
      karg = Array.make capacity no_key;
      dead = Array.make capacity true;
      heap = Array.make capacity 0;
      heap_size = 0;
      free = Array.make capacity 0;
      free_top = 0;
      fresh = 0;
      deferred = -1;
      next_seq = 0;
      live = 0;
      hwm = 0;
      wheel = Timer_wheel.create ~capacity ();
      wflush = ignore;
      wheel_parked = 0;
      growths = 0;
    }
  in
  (* A due wheel slot either joins the heap (live) or is recycled on
     the spot (cancelled while parked) — the wheel-side analogue of
     [skim]'s lazy-cancel recycling. *)
  q.wflush <-
    (fun slot -> if q.dead.(slot) then recycle q slot else heap_push q slot);
  q

(* ------------------------------------------------------------------ *)
(* Wheel staging *)

(* Drop dead slots sitting at the top of the heap; they leave the heap
   here and only here, so recycling them is immediate and safe. *)
let rec skim q =
  if q.heap_size > 0 then begin
    let slot = q.heap.(0) in
    if q.dead.(slot) then begin
      heap_drop_top q;
      recycle q slot;
      skim q
    end
  end

(* Advance the wheel far enough that the heap top is the true earliest
   live event among everything due by [limit_ns]: flush wheel slots
   into the heap up to min(limit, live heap top). When the heap is
   empty the wheel is drained one full horizon — which covers every
   parked slot — so the next event surfaces. Each [advance] strictly
   raises the cursor (or empties the wheel), so this terminates. *)
let rec ready q limit_ns =
  skim q;
  if Timer_wheel.count q.wheel > 0 then begin
    let top_ns =
      if q.heap_size = 0 then
        Timer_wheel.cursor_ns q.wheel + Timer_wheel.horizon_ns q.wheel
      else Time.to_ns q.at.(q.heap.(0))
    in
    let target = if limit_ns < top_ns then limit_ns else top_ns in
    if Timer_wheel.cursor_ns q.wheel <= target then begin
      Timer_wheel.advance q.wheel ~upto_ns:target ~flush:q.wflush;
      ready q limit_ns
    end
  end

(* ------------------------------------------------------------------ *)
(* Public operations *)

let pack slot g = (slot lsl gen_bits) lor (g land gen_mask)

let slot_of h = h lsr gen_bits

(* Claim a slot at [when_]: into the wheel if far enough out, else the
   heap. The caller fills the action fields. *)
let enqueue q when_ =
  flush_deferred q;
  let slot = alloc_slot q in
  q.at.(slot) <- when_;
  q.seq.(slot) <- q.next_seq;
  q.dead.(slot) <- false;
  q.next_seq <- q.next_seq + 1;
  q.live <- q.live + 1;
  if q.live > q.hwm then q.hwm <- q.live;
  if Timer_wheel.add q.wheel ~item:slot ~time_ns:(Time.to_ns when_) then
    q.wheel_parked <- q.wheel_parked + 1
  else heap_push q slot;
  slot

let schedule q when_ action =
  let slot = enqueue q when_ in
  q.act.(slot) <- action;
  pack slot q.gen.(slot)

let schedule_keyed q when_ f key =
  if key = no_key then invalid_arg "Event_queue.schedule_keyed: reserved key";
  let slot = enqueue q when_ in
  q.kact.(slot) <- f;
  q.karg.(slot) <- key;
  pack slot q.gen.(slot)

let valid q h =
  h >= 0
  &&
  let slot = slot_of h in
  slot < q.fresh && q.gen.(slot) land gen_mask = h land gen_mask

let cancel q h =
  if valid q h then begin
    let slot = slot_of h in
    if not q.dead.(slot) then begin
      q.dead.(slot) <- true;
      q.live <- q.live - 1
    end
  end

let is_pending q h = valid q h && not q.dead.(slot_of h)

let next_time q =
  flush_deferred q;
  ready q max_int;
  if q.heap_size = 0 then None else Some q.at.(q.heap.(0))

let action_closure q slot =
  if q.karg.(slot) = no_key then q.act.(slot)
  else begin
    let f = q.kact.(slot) and key = q.karg.(slot) in
    fun () -> f key
  end

let pop q =
  flush_deferred q;
  ready q max_int;
  if q.heap_size = 0 then None
  else begin
    let slot = q.heap.(0) in
    heap_drop_top q;
    q.dead.(slot) <- true;
    q.live <- q.live - 1;
    let time = q.at.(slot) and action = action_closure q slot in
    recycle q slot;
    Some (time, action)
  end

(* ------------------------------------------------------------------ *)
(* Allocation-free drain path (the scheduler's inner loop) *)

let nil : handle = -1

let is_nil h = h < 0

let time_of q h = q.at.(slot_of h)

(* Run the popped event's action without materialising a closure for
   keyed slots. Must be called before the next queue operation (the
   slot is recycled deferred, like [time_of]). *)
let fire q h =
  let slot = slot_of h in
  let key = q.karg.(slot) in
  if key = no_key then q.act.(slot) () else q.kact.(slot) key

(* Handles are immediate ints (slot, generation packed); exposing the
   coercion lets slab-of-arrays components (the flow table) store timer
   handles in flat [int array] rows instead of boxed fields. *)
let int_of_handle (h : handle) : int = h

let handle_of_int (i : int) : handle = i

let pop_if_before q horizon =
  flush_deferred q;
  ready q (Time.to_ns horizon);
  if q.heap_size = 0 then nil
  else begin
    let slot = q.heap.(0) in
    if Time.(q.at.(slot) > horizon) then nil
    else begin
      heap_drop_top q;
      q.dead.(slot) <- true;
      q.live <- q.live - 1;
      (* Recycle at the next queue operation, not now: the caller still
         reads [time_of]/[fire] through the returned handle. *)
      q.deferred <- slot;
      pack slot q.gen.(slot)
    end
  end
