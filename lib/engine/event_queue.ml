(* The pending-event set, stored as a slab of parallel arrays plus a
   binary min-heap whose entries carry their own time key. Nothing on
   the schedule/pop cycle allocates once the slab has warmed up:

   - a scheduled event occupies a {e slot} — its sequence number,
     generation and action live in parallel arrays, not in a per-event
     record;
   - popped and cancelled slots are recycled through a free stack;
   - a handle is a single immediate [int] packing (slot, generation), so
     returning one from [schedule] costs nothing and a stale handle —
     one whose slot has since been recycled — is recognised by its
     generation and ignored by [cancel]/[is_pending].

   A slot has no time field. A queued event's time is its heap key
   ([hkey.(i)], beside its slot in [hslot.(i)]), a parked event's time
   is the wheel's, and the time of the event popped last is
   [clock.now]. Ordering is (time, seq): a comparison is one integer
   compare of two keys read in place, and [seq.(slot)] is read only when
   the two times are equal. Sifts move a hole: each displaced entry is
   written once, and the entry being placed once, at the end.

   Cancellation stays lazy: a cancelled slot remains in the heap and is
   skipped (and only then recycled) when it surfaces. Slots popped by
   [pop_if_before] are recycled {e deferred} — at the next queue
   operation — so the caller can still [fire] the action without the
   slot being reused under it. [drain] needs no deferral: it reads the
   action, recycles the slot, then runs the action.

   Far-out events — link hops a propagation delay out, RTOs, pacing
   gaps, delayed ACKs — are parked in a hierarchical {!Timer_wheel}
   instead of the heap, so scheduling them is O(1) instead of
   O(log heap). The wheel is purely a staging area: before any pop,
   [ready] advances it to the pop frontier and every due slot is
   flushed {e into the heap}, which still decides firing order by
   (time, seq). Observable behaviour is therefore bit-identical to a
   heap-only queue; the wheel keeps the heap down to the events due
   within about a quantum, and absorbs the churn of timers that are
   cancelled or re-armed long before they fire (a cancelled wheel slot
   is recycled when the cursor passes its bucket, the same lazy
   discipline as a cancelled heap slot). "Far" is measured from the
   wheel's cursor, so [ready] never lets the cursor run more than one
   quantum past the next event to fire. *)

(* A handle packs the generation in the low [gen_bits] bits and the slot
   index above them. Generations wrap at 2^30, so mistaking a stale
   handle for a live one takes a slot recycled exactly 2^30 times
   between taking and using the handle. *)
let gen_bits = 30

let gen_mask = (1 lsl gen_bits) - 1

type handle = int

type clock = { mutable now : Time.t; mutable stopped : bool; mutable fired : int }

type t = {
  (* Per-slot arrays, all of one length: the slab capacity. *)
  mutable seq : int array; (* per-slot schedule order; FIFO tie-break *)
  mutable gen : int array; (* per-slot recycle count *)
  mutable act : (unit -> unit) array;
  mutable kact : (int -> unit) array; (* keyed action; see [schedule_keyed] *)
  mutable karg : int array; (* keyed argument; [no_key] = plain action *)
  mutable dead : bool array; (* fired or cancelled *)
  mutable hkey : Time.t array; (* heap entry i's time *)
  mutable hslot : int array; (* heap entry i's slot; min-heap on (hkey, seq) *)
  mutable heap_size : int;
  mutable free : int array; (* stack of recycled slots *)
  mutable free_top : int;
  mutable fresh : int; (* next never-used slot *)
  mutable deferred : int; (* slot awaiting recycle after pop_if_before *)
  mutable next_seq : int;
  mutable live : int;
  mutable hwm : int;
  clock : clock;
  wheel : Timer_wheel.t;
  (* The wheel's cursor while it holds items, [wheel_idle] while it is
     empty: [ready] learns from this one field that nothing parked can
     be due, without a call into the wheel. *)
  mutable wdue : int;
  mutable wflush : int -> unit; (* wheel->heap flusher, built once *)
  mutable wheel_parked : int; (* schedules absorbed by the wheel *)
  mutable growths : int; (* slab doublings since creation *)
}

let nop () = ()

let knop (_ : int) = ()

(* [karg] sentinel marking a slot whose action is the plain closure in
   [act]. [min_int] cannot collide with any packed flow/slot key. *)
let no_key = min_int

let wheel_idle = max_int

let length q = q.live

let is_empty q = q.live = 0

let high_water_mark q = q.hwm

let capacity q = Array.length q.seq

let growth_count q = q.growths

let wheel_parked q = q.wheel_parked

let clock q = q.clock

(* ------------------------------------------------------------------ *)
(* Slab bookkeeping *)

let grow q =
  let cap = capacity q in
  let ncap = 2 * cap in
  let extend a fill =
    let na = Array.make ncap fill in
    Array.blit a 0 na 0 cap;
    na
  in
  q.seq <- extend q.seq 0;
  q.gen <- extend q.gen 0;
  q.act <- extend q.act nop;
  q.kact <- extend q.kact knop;
  q.karg <- extend q.karg no_key;
  q.dead <- extend q.dead true;
  q.hkey <- extend q.hkey Time.zero;
  q.hslot <- extend q.hslot 0;
  q.free <- extend q.free 0;
  q.growths <- q.growths + 1;
  Timer_wheel.ensure_capacity q.wheel ncap

(* Put [slot] back on the free stack; bumping the generation is what
   invalidates every handle to the slot's previous occupant. Dropping
   the action reference matters too: it is what lets a fired event's
   closure (and whatever it captured) be collected. A free slot holds
   [nop], [knop] and [no_key], and scheduling sets either [act] or
   [kact]/[karg], so only that one needs resetting. *)
let recycle q slot =
  q.gen.(slot) <- q.gen.(slot) + 1;
  if q.karg.(slot) = no_key then q.act.(slot) <- nop
  else begin
    q.kact.(slot) <- knop;
    q.karg.(slot) <- no_key
  end;
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
    if q.fresh = capacity q then grow q;
    let slot = q.fresh in
    q.fresh <- q.fresh + 1;
    slot
  end

(* ------------------------------------------------------------------ *)
(* Heap of (time key, slot) entries, ordered by (time, seq) *)

(* Does the entry (ka, sa) pop before (kb, sb)? *)
let[@inline] before q ka sa kb sb =
  let a = Time.to_ns ka and b = Time.to_ns kb in
  a < b || (a = b && q.seq.(sa) < q.seq.(sb))

(* Move the hole at [i] up past every parent that (k, s) pops before,
   then fill it with (k, s). *)
let rec sift_up q i k s =
  let p = (i - 1) / 2 in
  if i > 0 && before q k s q.hkey.(p) q.hslot.(p) then begin
    q.hkey.(i) <- q.hkey.(p);
    q.hslot.(i) <- q.hslot.(p);
    sift_up q p k s
  end
  else begin
    q.hkey.(i) <- k;
    q.hslot.(i) <- s
  end

(* Move the hole at [i] down past every smaller child that pops before
   (k, s), then fill it with (k, s). *)
let rec sift_down q i k s =
  let l = (2 * i) + 1 in
  let c =
    if l >= q.heap_size then i
    else
      let r = l + 1 in
      if r < q.heap_size && before q q.hkey.(r) q.hslot.(r) q.hkey.(l) q.hslot.(l)
      then r
      else l
  in
  if c <> i && before q q.hkey.(c) q.hslot.(c) k s then begin
    q.hkey.(i) <- q.hkey.(c);
    q.hslot.(i) <- q.hslot.(c);
    sift_down q c k s
  end
  else begin
    q.hkey.(i) <- k;
    q.hslot.(i) <- s
  end

let heap_push q k slot =
  let i = q.heap_size in
  q.heap_size <- i + 1;
  sift_up q i k slot

let heap_drop_top q =
  let last = q.heap_size - 1 in
  q.heap_size <- last;
  if last > 0 then sift_down q 0 q.hkey.(last) q.hslot.(last)

let create ?(capacity = 64) () =
  if capacity < 1 then invalid_arg "Event_queue.create: capacity < 1";
  let q =
    {
      seq = Array.make capacity 0;
      gen = Array.make capacity 0;
      act = Array.make capacity nop;
      kact = Array.make capacity knop;
      karg = Array.make capacity no_key;
      dead = Array.make capacity true;
      hkey = Array.make capacity Time.zero;
      hslot = Array.make capacity 0;
      heap_size = 0;
      free = Array.make capacity 0;
      free_top = 0;
      fresh = 0;
      deferred = -1;
      next_seq = 0;
      live = 0;
      hwm = 0;
      clock = { now = Time.zero; stopped = false; fired = 0 };
      wheel = Timer_wheel.create ~capacity ();
      wdue = wheel_idle;
      wflush = ignore;
      wheel_parked = 0;
      growths = 0;
    }
  in
  (* A due wheel slot either joins the heap (live) or is recycled on
     the spot (cancelled while parked) — the wheel-side analogue of
     [skim]'s lazy-cancel recycling. *)
  q.wflush <-
    (fun slot ->
      if q.dead.(slot) then recycle q slot
      else heap_push q (Time.of_ns (Timer_wheel.time_ns q.wheel slot)) slot);
  q

(* ------------------------------------------------------------------ *)
(* Wheel staging *)

let sync_wdue q =
  q.wdue <-
    (if Timer_wheel.count q.wheel > 0 then Timer_wheel.cursor_ns q.wheel
     else wheel_idle)

(* Drop dead slots sitting at the top of the heap; they leave the heap
   here and only here, so recycling them is immediate and safe. *)
let rec skim q =
  if q.heap_size > 0 then begin
    let slot = q.hslot.(0) in
    if q.dead.(slot) then begin
      heap_drop_top q;
      recycle q slot;
      skim q
    end
  end

(* Advance the wheel far enough that the heap top is the true earliest
   live event among everything due by [limit_ns]: flush wheel slots
   into the heap up to min(limit, live heap top). When the heap is
   empty the wheel flushes only its first occupied bucket due by the
   limit, so the next event surfaces and the cursor stops within one
   quantum of it: a cursor that ran further ahead of the clock would
   send every new timer due before it to the heap instead of the wheel.
   Each call into the wheel flushes a bucket, moves the cursor past the
   limit or the heap top, or empties the wheel, so this terminates.
   The common case — an empty wheel, or a cursor past the limit or the
   heap top — costs two compares and no call into the wheel. *)
let rec ready q limit_ns =
  skim q;
  let cursor = q.wdue in
  if cursor <= limit_ns && cursor <> wheel_idle then
    if q.heap_size = 0 then begin
      Timer_wheel.advance_first q.wheel ~upto_ns:limit_ns ~flush:q.wflush;
      sync_wdue q;
      ready q limit_ns
    end
    else begin
      let top_ns = Time.to_ns q.hkey.(0) in
      if cursor <= top_ns then begin
        let target = if limit_ns < top_ns then limit_ns else top_ns in
        Timer_wheel.advance q.wheel ~upto_ns:target ~flush:q.wflush;
        sync_wdue q;
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
  q.seq.(slot) <- q.next_seq;
  q.dead.(slot) <- false;
  q.next_seq <- q.next_seq + 1;
  q.live <- q.live + 1;
  if q.live > q.hwm then q.hwm <- q.live;
  if Timer_wheel.add q.wheel ~item:slot ~time_ns:(Time.to_ns when_) then begin
    q.wheel_parked <- q.wheel_parked + 1;
    if q.wdue = wheel_idle then q.wdue <- Timer_wheel.cursor_ns q.wheel
  end
  else heap_push q when_ slot;
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

(* The earliest live event, if it is due by [limit_ns]: its slot, with
   [clock.now] set to its time and the slot out of the heap but not yet
   recycled; [-1] otherwise. *)
let take q limit_ns =
  ready q limit_ns;
  if q.heap_size = 0 || Time.to_ns q.hkey.(0) > limit_ns then -1
  else begin
    let slot = q.hslot.(0) in
    q.clock.now <- q.hkey.(0);
    heap_drop_top q;
    q.dead.(slot) <- true;
    q.live <- q.live - 1;
    slot
  end

let next_time q =
  flush_deferred q;
  ready q max_int;
  if q.heap_size = 0 then None else Some q.hkey.(0)

let action_closure q slot =
  if q.karg.(slot) = no_key then q.act.(slot)
  else begin
    let f = q.kact.(slot) and key = q.karg.(slot) in
    fun () -> f key
  end

let pop q =
  flush_deferred q;
  let slot = take q max_int in
  if slot < 0 then None
  else begin
    let action = action_closure q slot in
    recycle q slot;
    Some (q.clock.now, action)
  end

(* ------------------------------------------------------------------ *)
(* Allocation-free drain path *)

let nil : handle = -1

let is_nil h = h < 0

let time_of q (_ : handle) = q.clock.now

(* Run the popped event's action without materialising a closure for
   keyed slots. Must be called before the next queue operation (the
   slot is recycled deferred). *)
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
  let slot = take q (Time.to_ns horizon) in
  if slot < 0 then nil
  else begin
    (* Recycle at the next queue operation, not now: the caller still
       fires the action through the returned handle. *)
    q.deferred <- slot;
    pack slot q.gen.(slot)
  end

(* The scheduler's inner loop: everything per event is a field access
   or a call inside this module, except the action itself. The action
   is read before its slot is recycled, so the action may reuse the
   slot at once. *)
let drain q horizon =
  let c = q.clock and limit_ns = Time.to_ns horizon in
  flush_deferred q;
  let continue = ref true in
  while !continue && not c.stopped do
    let slot = take q limit_ns in
    if slot < 0 then continue := false
    else begin
      c.fired <- c.fired + 1;
      let key = q.karg.(slot) in
      if key = no_key then begin
        let f = q.act.(slot) in
        recycle q slot;
        f ()
      end
      else begin
        let f = q.kact.(slot) in
        recycle q slot;
        f key
      end
    end
  done
