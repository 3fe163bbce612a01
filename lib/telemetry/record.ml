(* Fixed-width binary trace records.

   One record is [words] consecutive OCaml ints:

     [tick; kind; flow; a; b; c; sid; depth]

   - [tick]  simulation time in integer nanoseconds (engine ticks);
   - [kind]  one of the codes below;
   - [flow]  flow id, or 0 when not applicable;
   - [a..c]  kind-specific payload words (floats travel as the hi/lo
     32-bit halves of their IEEE-754 bits in [b]/[c], so decoding is
     exact);
   - [sid]   interned-string id (link/queue/label name), 0 = none;
   - [depth] instantaneous queue depth at the recording site, or 0.

   Kinds 0..10 mirror {!Event_bus.event} one-to-one ("parity" kinds): the
   bus and its NDJSON are exactly their decode, and [ndjson_writer]
   renders them through the bus's own renderer. Kinds >= 11 are
   lifecycle extensions that only exist in the binary stream.

   In a lane and on disk the words are 64-bit little-endian, one order
   for both, so a recorder writes and reads them in blocks. *)

let words = 8

(* Parity kinds: exactly the Event_bus vocabulary. *)
let packet_arrival = 0
let packet_drop = 1
let packet_depart = 2
let tcp_timeout = 3
let tcp_fast_retransmit = 4
let tcp_cwnd_cut = 5
let tcp_ecn_reaction = 6
let queue_ecn_mark = 7
let queue_early_drop = 8
let queue_forced_drop = 9
let custom_value = 10

(* Lifecycle kinds. *)
let tcp_phase = 11
let tcp_rtt = 12
let rcv_out_of_order = 13
let rcv_duplicate = 14
let router_rtx_forward = 15
let run_start = 16
let run_end = 17

(* Burst-telemetry kinds: end-of-run summaries from Telemetry.Burst.
   The scale kinds carry the level/octave in [a], the value's IEEE-754
   bits in [b]/[c] and the block count in [depth]; the oscillation
   kinds carry crossings in [a] and the detector verdict in [depth]. *)
let burst_cov = 18
let burst_idc = 19
let burst_hurst = 20
let burst_osc_amp = 21
let burst_osc_freq = 22

(* Hybrid-engine kinds: end-of-run summaries of the fluid background
   population. Each carries the background flow count in [a], the
   value's IEEE-754 bits in [b]/[c] and the quantum count in [depth]. *)
let hybrid_bg_window = 23
let hybrid_bg_queue = 24
let hybrid_bg_rate = 25

let max_kind = hybrid_bg_rate

let is_parity k = k >= packet_arrival && k <= custom_value

let kind_label = function
  | 0 -> "packet_arrival"
  | 1 -> "packet_drop"
  | 2 -> "packet_depart"
  | 3 -> "tcp_timeout"
  | 4 -> "tcp_fast_retransmit"
  | 5 -> "tcp_cwnd_cut"
  | 6 -> "tcp_ecn_reaction"
  | 7 -> "queue_ecn_mark"
  | 8 -> "queue_early_drop"
  | 9 -> "queue_forced_drop"
  | 10 -> "custom"
  | 11 -> "tcp_phase"
  | 12 -> "tcp_rtt"
  | 13 -> "rcv_out_of_order"
  | 14 -> "rcv_duplicate"
  | 15 -> "router_rtx_forward"
  | 16 -> "run_start"
  | 17 -> "run_end"
  | 18 -> "burst_cov"
  | 19 -> "burst_idc"
  | 20 -> "burst_hurst"
  | 21 -> "burst_osc_amp"
  | 22 -> "burst_osc_freq"
  | 23 -> "hybrid_bg_window"
  | 24 -> "hybrid_bg_queue"
  | 25 -> "hybrid_bg_rate"
  | k -> Printf.sprintf "kind_%d" k

let kind_of_label s =
  let rec find k = if k > max_kind then None else if String.equal (kind_label k) s then Some k else find (k + 1) in
  find 0

(* TCP congestion phases carried in the [a] word of [tcp_phase]. *)
let phase_slow_start = 0
let phase_cong_avoid = 1
let phase_recovery = 2
let phase_timeout = 3

let phase_label = function
  | 0 -> "slow_start"
  | 1 -> "cong_avoid"
  | 2 -> "recovery"
  | 3 -> "timeout"
  | p -> Printf.sprintf "phase_%d" p

(* Sentinel for "no sequence number" in the [c] word of packet records
   (ACKs decode to [seq = null]). *)
let no_seq = min_int

(* ------------------------------------------------------------------ *)
(* Exact float transport: IEEE-754 bits split across two words.       *)

let float_hi f =
  Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float f) 32)

let float_lo f =
  Int64.to_int (Int64.logand (Int64.bits_of_float f) 0xFFFF_FFFFL)

(* IEEE-754 bits of [float_of_int n] for small [n >= 0], in pure
   integer arithmetic: nonnegative doubles keep the sign bit clear, so
   the whole 63 significant bits fit an OCaml int and no float (or
   Int64) is ever boxed. Exact for n < 2^52 — plenty for queue depths.
   [bits lsr 32] and [bits land 0xFFFF_FFFF] are then the {!float_hi} /
   {!float_lo} words. *)
let[@inline] bits_of_nonneg_int n =
  if n <= 0 then 0
  else begin
    let k = ref 0 in
    while n lsr !k > 1 do
      incr k
    done;
    ((1023 + !k) lsl 52) lor ((n lsl (52 - !k)) land 0xF_FFFF_FFFF_FFFF)
  end

let float_of_parts ~hi ~lo =
  Int64.float_of_bits
    (Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo))

let time_of_tick tick = float_of_int tick /. 1e9

(* ------------------------------------------------------------------ *)
(* Binary word codec: 64-bit little-endian, sign-extended. OCaml's
   63-bit ints round-trip exactly (the written 64-bit value is the
   sign-extension, and reading truncates it back). *)

let put64 b pos v =
  Bytes.unsafe_set b pos (Char.unsafe_chr (v land 0xff));
  Bytes.unsafe_set b (pos + 1) (Char.unsafe_chr ((v asr 8) land 0xff));
  Bytes.unsafe_set b (pos + 2) (Char.unsafe_chr ((v asr 16) land 0xff));
  Bytes.unsafe_set b (pos + 3) (Char.unsafe_chr ((v asr 24) land 0xff));
  Bytes.unsafe_set b (pos + 4) (Char.unsafe_chr ((v asr 32) land 0xff));
  Bytes.unsafe_set b (pos + 5) (Char.unsafe_chr ((v asr 40) land 0xff));
  Bytes.unsafe_set b (pos + 6) (Char.unsafe_chr ((v asr 48) land 0xff));
  Bytes.unsafe_set b (pos + 7) (Char.unsafe_chr ((v asr 56) land 0xff))

let get64 b pos =
  let v = ref 0L in
  for i = 7 downto 0 do
    v :=
      Int64.logor (Int64.shift_left !v 8)
        (Int64.of_int (Char.code (Bytes.get b (pos + i))))
  done;
  Int64.to_int !v

(* Lane words: 64-bit little-endian, the on-disk order, through the
   unaligned, unchecked bytes primitives — one plain load or store on a
   little-endian host. Lanes live in [Bytes] precisely so the major GC
   never scans them (a multi-MB int array is walked word by word on every
   major cycle; an equally large Bytes block is O(1) to mark), and since
   their words are already in file order, a lane slice goes to a segment
   with one [output] and comes back with one [really_input]. *)

external unsafe_set_word64 : Bytes.t -> int -> int64 -> unit
  = "%caml_bytes_set64u"

external unsafe_get_word64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external swap64 : int64 -> int64 = "%bswap_int64"

let[@inline] set_word b pos v =
  let w = Int64.of_int v in
  unsafe_set_word64 b pos (if Sys.big_endian then swap64 w else w)

let[@inline] get_word b pos =
  let w = unsafe_get_word64 b pos in
  Int64.to_int (if Sys.big_endian then swap64 w else w)

(* ------------------------------------------------------------------ *)
(* Decoding records back into events / JSON.                          *)

(* Parity kind codes, block by block, to their bus kinds. *)
let packet_kinds = Event_bus.[| Arrival; Drop; Depart |]
let tcp_kinds = Event_bus.[| Timeout; Fast_retransmit; Cwnd_cut; Ecn_reaction |]
let queue_kinds = Event_bus.[| Ecn_mark; Early_drop; Forced_drop |]

let event_of_record ~lookup buf off =
  let kind = buf.(off + 1) in
  if not (is_parity kind) then None
  else begin
    let time = time_of_tick buf.(off) and flow = buf.(off + 2) in
    let a = buf.(off + 3) and b = buf.(off + 4) and c = buf.(off + 5) in
    let sid = buf.(off + 6) in
    Some
      (if kind <= packet_depart then
         Event_bus.Packet
           {
             time;
             kind = packet_kinds.(kind - packet_arrival);
             link = lookup sid;
             flow;
             seq = (if c = no_seq then None else Some c);
             size_bytes = b;
             uid = a;
           }
       else if kind <= tcp_ecn_reaction then
         Event_bus.Tcp
           {
             time;
             kind = tcp_kinds.(kind - tcp_timeout);
             flow;
             cwnd = float_of_parts ~hi:b ~lo:c;
           }
       else if kind <= queue_forced_drop then
         Event_bus.Queue
           {
             time;
             kind = queue_kinds.(kind - queue_ecn_mark);
             queue = lookup sid;
             flow;
             avg = float_of_parts ~hi:b ~lo:c;
           }
       else
         Event_bus.Custom
           { time; name = lookup sid; value = float_of_parts ~hi:b ~lo:c })
  end

(* The JSON of a lifecycle (non-parity) record. *)
let lifecycle_json ~lookup buf off =
  let tick = buf.(off) and kind = buf.(off + 1) and flow = buf.(off + 2) in
  let a = buf.(off + 3) and b = buf.(off + 4) and c = buf.(off + 5) in
  let sid = buf.(off + 6) in
  let time = Json.Float (time_of_tick tick) in
  if kind = tcp_phase then
    Json.Obj
      [
        ("event", Json.String "phase");
        ("time", time);
        ("flow", Json.Int flow);
        ("phase", Json.String (phase_label a));
        ("cwnd", Json.Float (float_of_parts ~hi:b ~lo:c));
      ]
  else if kind = tcp_rtt then
    Json.Obj
      [
        ("event", Json.String "rtt");
        ("time", time);
        ("flow", Json.Int flow);
        ("rtt_ns", Json.Int a);
      ]
  else if kind = rcv_out_of_order || kind = rcv_duplicate then
    Json.Obj
      [
        ("event", Json.String "receiver");
        ("time", time);
        ( "kind",
          Json.String
            (if kind = rcv_out_of_order then "out_of_order" else "duplicate")
        );
        ("flow", Json.Int flow);
        ("seq", Json.Int a);
      ]
  else if kind = router_rtx_forward then
    Json.Obj
      [
        ("event", Json.String "router");
        ("time", time);
        ("name", Json.String (lookup sid));
        ("flow", Json.Int flow);
        ("uid", Json.Int a);
        ("dst", Json.Int b);
        ("seq", Json.Int c);
      ]
  else if kind = run_start then
    Json.Obj
      [
        ("event", Json.String "run");
        ("time", time);
        ("kind", Json.String "start");
        ("label", Json.String (lookup sid));
      ]
  else if kind = run_end then
    Json.Obj
      [
        ("event", Json.String "run");
        ("time", time);
        ("kind", Json.String "end");
        ("label", Json.String (lookup sid));
        ("events", Json.Int a);
      ]
  else if kind = burst_cov || kind = burst_idc then
    Json.Obj
      [
        ("event", Json.String "burst");
        ("time", time);
        ( "kind",
          Json.String (if kind = burst_cov then "cov" else "idc") );
        ("run", Json.String (lookup sid));
        ("level", Json.Int a);
        ("value", Json.Float (float_of_parts ~hi:b ~lo:c));
        ("blocks", Json.Int buf.(off + 7));
      ]
  else if kind = burst_hurst then
    Json.Obj
      [
        ("event", Json.String "burst");
        ("time", time);
        ("kind", Json.String "hurst");
        ("run", Json.String (lookup sid));
        ("octaves", Json.Int a);
        ("value", Json.Float (float_of_parts ~hi:b ~lo:c));
      ]
  else if kind = burst_osc_amp || kind = burst_osc_freq then
    Json.Obj
      [
        ("event", Json.String "burst");
        ("time", time);
        ( "kind",
          Json.String
            (if kind = burst_osc_amp then "osc_amplitude"
             else "osc_frequency") );
        ("run", Json.String (lookup sid));
        ("crossings", Json.Int a);
        ("value", Json.Float (float_of_parts ~hi:b ~lo:c));
        ("oscillating", Json.Bool (buf.(off + 7) = 1));
      ]
  else if kind = hybrid_bg_window || kind = hybrid_bg_queue
          || kind = hybrid_bg_rate then
    Json.Obj
      [
        ("event", Json.String "hybrid");
        ("time", time);
        ( "kind",
          Json.String
            (if kind = hybrid_bg_window then "bg_window"
             else if kind = hybrid_bg_queue then "bg_queue"
             else "bg_rate") );
        ("run", Json.String (lookup sid));
        ("background", Json.Int a);
        ("value", Json.Float (float_of_parts ~hi:b ~lo:c));
        ("steps", Json.Int buf.(off + 7));
      ]
  else
    Json.Obj
      [
        ("event", Json.String (kind_label kind));
        ("time", time);
        ("flow", Json.Int flow);
        ("a", Json.Int a);
        ("b", Json.Int b);
        ("c", Json.Int c);
        ("sid", Json.Int sid);
        ("depth", Json.Int buf.(off + 7));
      ]

let json_of_record ~lookup buf off =
  match event_of_record ~lookup buf off with
  | Some e -> Event_bus.to_json e
  | None -> lifecycle_json ~lookup buf off

let ndjson_writer oc =
  let event = Event_bus.ndjson_writer oc and other = Json.line_writer oc in
  fun ~lookup buf off ->
    match event_of_record ~lookup buf off with
    | Some e -> event e
    | None -> other (lifecycle_json ~lookup buf off)
