module Time = Sim_engine.Time
module Scheduler = Sim_engine.Scheduler
module Eq = Sim_engine.Event_queue
module Pool = Netsim.Packet_pool
module Ft = Netsim.Flow_table
module L = Flow_layout

let delack_delay = Time.of_ms 200.

(* Per-flow state is one int row of a {!Netsim.Flow_table}
   ({!Flow_layout} receiver cells) plus a bitset recording buffered
   out-of-order sequences over the same [seq land mask] addressing the
   sender uses: live sequences span less than the reassembly window, so
   the direct-mapped bit is collision-free. *)
type group = {
  sched : Scheduler.t;
  pool : Pool.t;
  table : Ft.t;
  ack_bytes : int;
  delayed_ack : bool;
  sack : bool;
  st_size : int;
  st_mask : int;
  row_ints : int;
  transmit : flow:int -> Pool.handle -> unit;
  (* Lifecycle-only flight-recorder lane: out-of-order buffering and
     duplicate discards. [None] in parity mode, which records only
     the kinds the event bus carries. *)
  rlane : Telemetry.Recorder.lane option;
  (* Preallocated keyed 200 ms timer action: arming per flight of
     segments builds no closure. *)
  mutable on_delack : int -> unit;
}

type t = { g : group; h : Ft.handle }

let nil_i = Eq.int_of_handle Scheduler.nil

let bit_mem (iv : int array) base idx =
  iv.(base + (idx lsr 5)) land (1 lsl (idx land 31)) <> 0

let bit_set (iv : int array) base idx =
  let w = base + (idx lsr 5) in
  iv.(w) <- iv.(w) lor (1 lsl (idx land 31))

let bit_clear (iv : int array) base idx =
  let w = base + (idx lsr 5) in
  iv.(w) <- iv.(w) land lnot (1 lsl (idx land 31))

let cancel_delack g slot =
  let iv = Ft.ints g.table in
  let ti = (slot * g.row_ints) + L.ri_delack_timer in
  if iv.(ti) <> nil_i then begin
    Scheduler.cancel g.sched (Eq.handle_of_int iv.(ti));
    iv.(ti) <- nil_i
  end

(* RFC 2018: report the out-of-order data as up to four contiguous
   [(first, last_exclusive)] blocks — the lowest four, which the
   sender's scoreboard cares about most. The ascending scan over the
   reassembly window visits each buffered sequence once and stops as
   soon as every buffered sequence is accounted for. *)
let sack_blocks g slot =
  let iv = Ft.ints g.table in
  let b = slot * g.row_ints in
  let total = iv.(b + L.ri_ooo_count) in
  if (not g.sack) || total = 0 then []
  else begin
    let expected = iv.(b + L.ri_expected) in
    let blocks = ref [] in
    let nblocks = ref 0 in
    let found = ref 0 in
    let first = ref (-1) in
    let d = ref 1 in
    while !d < g.st_size && !found < total && !nblocks < 4 do
      let seq = expected + !d in
      if bit_mem iv (b + L.receiver_ints) (seq land g.st_mask) then begin
        incr found;
        if !first < 0 then first := seq
      end
      else if !first >= 0 then begin
        blocks := (!first, seq) :: !blocks;
        incr nblocks;
        first := -1
      end;
      incr d
    done;
    if !first >= 0 && !nblocks < 4 then
      blocks := (!first, expected + !d) :: !blocks;
    List.rev !blocks
  end

let send_ack g slot =
  cancel_delack g slot;
  let iv = Ft.ints g.table in
  let b = slot * g.row_ints in
  iv.(b + L.ri_unacked) <- 0;
  iv.(b + L.ri_acks_sent) <- iv.(b + L.ri_acks_sent) + 1;
  let ece = iv.(b + L.ri_flags) land L.rfl_pending_ece <> 0 in
  iv.(b + L.ri_flags) <- iv.(b + L.ri_flags) land lnot L.rfl_pending_ece;
  let p =
    Pool.alloc_ack g.pool ~flow:iv.(b + L.ri_flow) ~src:iv.(b + L.ri_src)
      ~dst:iv.(b + L.ri_dst) ~size_bytes:g.ack_bytes
      ~sent_at:(Scheduler.now g.sched)
      ~ack:iv.(b + L.ri_expected) ~ece ~sack:(sack_blocks g slot) ()
  in
  g.transmit ~flow:iv.(b + L.ri_flow) p

let create_group ?(sack = false) ?recorder ?(capacity = 16) sched ~pool
    ~ack_bytes ~delayed_ack ~adv_window ~transmit =
  if adv_window < 1 then
    invalid_arg "Tcp_receiver.create_group: adv_window < 1";
  let rlane =
    match recorder with
    | Some r when Telemetry.Recorder.lifecycle r ->
        Some (Telemetry.Recorder.lane r 0)
    | _ -> None
  in
  let st_size = L.seq_table_size ~adv_window in
  let row_ints = L.receiver_ints + L.bitset_words st_size in
  let g =
    {
      sched;
      pool;
      table = Ft.create ~capacity ~ints_per_flow:row_ints ~floats_per_flow:0 ();
      ack_bytes;
      delayed_ack;
      sack;
      st_size;
      st_mask = st_size - 1;
      row_ints;
      transmit;
      rlane;
      on_delack = ignore;
    }
  in
  g.on_delack <-
    (fun slot ->
      (Ft.ints g.table).((slot * g.row_ints) + L.ri_delack_timer) <- nil_i;
      send_ack g slot);
  g

let attach g ~flow ~src ~dst () =
  let h = Ft.alloc g.table in
  let slot = Ft.slot_of g.table h in
  let iv = Ft.ints g.table in
  let b = slot * g.row_ints in
  iv.(b + L.ri_flow) <- flow;
  iv.(b + L.ri_src) <- src;
  iv.(b + L.ri_dst) <- dst;
  iv.(b + L.ri_delack_timer) <- nil_i;
  { g; h }

let detach t =
  let slot = Ft.slot_of t.g.table t.h in
  cancel_delack t.g slot;
  Ft.free t.g.table t.h

let table g = g.table

let group t = t.g

let schedule_delack g slot =
  let iv = Ft.ints g.table in
  let ti = (slot * g.row_ints) + L.ri_delack_timer in
  if iv.(ti) = nil_i then
    iv.(ti) <-
      Eq.int_of_handle
        (Scheduler.after_keyed g.sched delack_delay g.on_delack slot)

let record_rcv g slot kind seq =
  match g.rlane with
  | None -> ()
  | Some lane ->
      Telemetry.Recorder.record lane
        ~tick:(Time.to_ns (Scheduler.now g.sched))
        ~kind
        ~flow:(Ft.ints g.table).((slot * g.row_ints) + L.ri_flow)
        ~a:seq ~b:0 ~c:0 ~sid:0 ~depth:0

let on_in_order g slot =
  let iv = Ft.ints g.table in
  let b = slot * g.row_ints in
  iv.(b + L.ri_expected) <- iv.(b + L.ri_expected) + 1;
  (* Pull any buffered continuation forward. *)
  let continue = ref true in
  while !continue do
    let e = iv.(b + L.ri_expected) in
    if
      iv.(b + L.ri_ooo_count) > 0
      && bit_mem iv (b + L.receiver_ints) (e land g.st_mask)
    then begin
      bit_clear iv (b + L.receiver_ints) (e land g.st_mask);
      iv.(b + L.ri_ooo_count) <- iv.(b + L.ri_ooo_count) - 1;
      iv.(b + L.ri_expected) <- e + 1
    end
    else continue := false
  done;
  if not g.delayed_ack then send_ack g slot
  else begin
    iv.(b + L.ri_unacked) <- iv.(b + L.ri_unacked) + 1;
    if iv.(b + L.ri_unacked) >= 2 then send_ack g slot
    else schedule_delack g slot
  end

let handle_packet_slot g slot h =
  match Pool.kind g.pool h with
  | Pool.Tcp_data ->
      let iv = Ft.ints g.table in
      let b = slot * g.row_ints in
      if Pool.ecn_ce g.pool h then
        iv.(b + L.ri_flags) <- iv.(b + L.ri_flags) lor L.rfl_pending_ece;
      let seq = Pool.seq g.pool h in
      let expected = iv.(b + L.ri_expected) in
      if seq = expected then on_in_order g slot
      else if seq > expected then begin
        (* The sender's window keeps live sequences inside the
           reassembly window; anything further is a wiring bug, and the
           direct-mapped bit would silently alias. *)
        if seq - expected >= g.st_size then
          invalid_arg "Tcp_receiver: sequence beyond reassembly window";
        if bit_mem iv (b + L.receiver_ints) (seq land g.st_mask) then begin
          iv.(b + L.ri_duplicates) <- iv.(b + L.ri_duplicates) + 1;
          record_rcv g slot Telemetry.Record.rcv_duplicate seq
        end
        else begin
          bit_set iv (b + L.receiver_ints) (seq land g.st_mask);
          iv.(b + L.ri_ooo_count) <- iv.(b + L.ri_ooo_count) + 1;
          record_rcv g slot Telemetry.Record.rcv_out_of_order seq
        end;
        (* Out-of-order arrival: ACK immediately (duplicate ACK). *)
        send_ack g slot
      end
      else begin
        iv.(b + L.ri_duplicates) <- iv.(b + L.ri_duplicates) + 1;
        record_rcv g slot Telemetry.Record.rcv_duplicate seq;
        send_ack g slot
      end
  | Pool.Tcp_ack | Pool.Udp_data -> ()

let slot t = Ft.slot_of t.g.table t.h

let handle_packet t h = handle_packet_slot t.g (slot t) h

let delivered t =
  (Ft.ints t.g.table).((slot t * t.g.row_ints) + L.ri_expected)

let acks_sent t =
  (Ft.ints t.g.table).((slot t * t.g.row_ints) + L.ri_acks_sent)

let duplicates_discarded t =
  (Ft.ints t.g.table).((slot t * t.g.row_ints) + L.ri_duplicates)
