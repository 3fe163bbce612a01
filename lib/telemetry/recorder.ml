(* The flight recorder: preallocated per-lane buffers of fixed-width
   {!Record} words, with two overflow policies:

   - [Drop_oldest]: a true ring — the newest records win, overwritten
     oldest ones are counted in [dropped]. Always-on mode: bounded
     memory, zero allocation per record.
   - [Grow]: a full buffer gets a fresh one of the same size after it;
     nothing is ever lost or copied. Used when a complete trace must be
     reconstructed (e.g. a [--trace-out] replay).

   A recorder owns one intern table (strings referenced by records)
   and one or more lanes (one per domain). Within a segment, records
   are merged deterministically by [(tick, lane, seq)].

   Lane words are little-endian, the segment file's order, so a segment
   is written as lane slices, one [output] per run of records
   contiguous in a buffer, and read back one [really_input] per chunk,
   each record decoded from those bytes as it is iterated. *)

type overflow = Drop_oldest | Grow

type config = { capacity : int; overflow : overflow; lifecycle : bool }

let default_config = { capacity = 1 lsl 16; overflow = Grow; lifecycle = true }

let magic = "BFRC0001"

(* Bytes per record in a lane buffer and on disk. Lanes are [Bytes]
   rather than [int array] so the major GC marks them in O(1) instead
   of scanning every word — measurable on the default 4 MB lane. *)
let rbytes = 8 * Record.words

(* Local copies of {!Record.set_word}/{!Record.get_word}, the
   little-endian lane words: declared here so the stores compile to
   single unboxed instructions in [record] (a cross-module call per word
   would dominate the hot path). *)
external unsafe_set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external unsafe_get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external swap64 : int64 -> int64 = "%bswap_int64"

let[@inline] set_le buf off v =
  let w = Int64.of_int v in
  unsafe_set64 buf off (if Sys.big_endian then swap64 w else w)

let[@inline] get_le buf off =
  let w = unsafe_get64 buf off in
  Int64.to_int (if Sys.big_endian then swap64 w else w)

type t = {
  config : config;
  label : string;
  intern_tbl : (string, int) Hashtbl.t;
  mutable interns_rev : string list;
  mutable intern_count : int;
  mutable lanes_rev : lane list;
  mutable finished : bool;
  w8 : Bytes.t; (* single-word write scratch *)
}

and lane = {
  id : int;
  ring : bool; (* drop oldest; otherwise grow *)
  mutable buf : Bytes.t; (* [cap * rbytes] bytes, little-endian words *)
  cap : int; (* records per buffer *)
  mutable chunks : Bytes.t array; (* grow mode: every buffer, [buf] last *)
  mutable total : int; (* records ever offered *)
  mutable dropped : int; (* records overwritten in ring mode *)
}

(* Lane capacities are rounded up to a power of two so the ring-mode
   slot is a mask, not an integer division. *)
let pow2_above n =
  let c = ref 16 in
  while !c < n do
    c := !c * 2
  done;
  !c

let create ?(label = "") config =
  let capacity = pow2_above config.capacity in
  let config = { config with capacity } in
  let intern_tbl = Hashtbl.create 16 in
  (* Index 0 is reserved for "no string" so records can carry sid = 0
     without touching the table. *)
  Hashtbl.replace intern_tbl "" 0;
  {
    config;
    label;
    intern_tbl;
    interns_rev = [ "" ];
    intern_count = 1;
    lanes_rev = [];
    finished = false;
    w8 = Bytes.create 8;
  }

let config t = t.config

let lifecycle t = t.config.lifecycle

let label t = t.label

let finished t = t.finished

let intern t s =
  match Hashtbl.find_opt t.intern_tbl s with
  | Some i -> i
  | None ->
      if t.finished then
        invalid_arg "Recorder.intern: segment already written";
      let i = t.intern_count in
      Hashtbl.replace t.intern_tbl s i;
      t.interns_rev <- s :: t.interns_rev;
      t.intern_count <- i + 1;
      i

let intern_array t = Array.of_list (List.rev t.interns_rev)

let lookup_in interns i =
  if i >= 0 && i < Array.length interns then interns.(i)
  else Printf.sprintf "?%d" i

let lookup t = lookup_in (intern_array t)

let lane t id =
  match List.find_opt (fun l -> l.id = id) t.lanes_rev with
  | Some l -> l
  | None ->
      if t.finished then invalid_arg "Recorder.lane: recorder finished";
      let cap = t.config.capacity in
      (* Uninitialized on purpose: only written slots are read. *)
      let buf = Bytes.create (cap * rbytes) in
      let l =
        {
          id;
          ring = t.config.overflow = Drop_oldest;
          buf;
          cap;
          chunks = [| buf |];
          total = 0;
          dropped = 0;
        }
      in
      t.lanes_rev <- l :: t.lanes_rev;
      l

let recorded l = l.total

let lane_dropped l = l.dropped

(* Logical record index -> its buffer and slot there ([cap] is a power
   of two). *)
let slot_of l k = k land (l.cap - 1)

let buf_of l k = if l.ring then l.buf else l.chunks.(k / l.cap)

(* First logical index still held in memory. *)
let retained_first l = if l.ring then max 0 (l.total - l.cap) else 0

let retained l = l.total - retained_first l

let lanes t =
  List.sort (fun a b -> Int.compare a.id b.id) (List.rev t.lanes_rev)

let total_recorded t = List.fold_left (fun acc l -> acc + l.total) 0 t.lanes_rev

let total_dropped t = List.fold_left (fun acc l -> acc + l.dropped) 0 t.lanes_rev

(* ------------------------------------------------------------------ *)
(* Binary segment output.                                             *)

let out_word t oc v =
  Record.put64 t.w8 0 v;
  output oc t.w8 0 8

let out_string t oc s =
  out_word t oc (String.length s);
  output_string oc s

let write_header t oc =
  output_string oc magic;
  out_string t oc t.label;
  out_word t oc t.intern_count;
  List.iter (out_string t oc) (List.rev t.interns_rev)

(* One chunk: tag 1, lane id, first logical seq, count, then
   [count * Record.words] little-endian words. Lane words are already in
   that order, so each run of records contiguous in one buffer goes out
   with one [output]: a grow lane's buffers in turn, a wrapped ring's
   two halves. *)
let write_records t oc l ~first ~count =
  out_word t oc 1;
  out_word t oc l.id;
  out_word t oc first;
  out_word t oc count;
  let k = ref first and stop = first + count in
  while !k < stop do
    let slot = slot_of l !k in
    let n = min (l.cap - slot) (stop - !k) in
    output oc (buf_of l !k) (slot * rbytes) (n * rbytes);
    k := !k + n
  done

(* ------------------------------------------------------------------ *)
(* The hot path. Pure int stores into a preallocated buffer: zero
   minor words per record in ring and (amortized) grow modes.        *)

let[@inline] record l ~tick ~kind ~flow ~a ~b ~c ~sid ~depth =
  let n = l.total in
  let slot = n land (l.cap - 1) in
  if l.ring then begin
    if n >= l.cap then l.dropped <- l.dropped + 1
  end
  else if slot = 0 && n > 0 then begin
    l.buf <- Bytes.create (l.cap * rbytes);
    l.chunks <- Array.append l.chunks [| l.buf |]
  end;
  let off = slot * rbytes in
  let buf = l.buf in
  set_le buf off tick;
  set_le buf (off + 8) kind;
  set_le buf (off + 16) flow;
  set_le buf (off + 24) a;
  set_le buf (off + 32) b;
  set_le buf (off + 40) c;
  set_le buf (off + 48) sid;
  set_le buf (off + 56) depth;
  l.total <- n + 1

(* ------------------------------------------------------------------ *)
(* Iteration over retained records.                                   *)

(* Iteration decodes each record into a reused scratch so callbacks
   keep the [int array] view regardless of the lane representation. *)
let load_record buf boff scratch =
  for w = 0 to Record.words - 1 do
    Array.unsafe_set scratch w (get_le buf (boff + (8 * w)))
  done

let iter_lane l f =
  let scratch = Array.make Record.words 0 in
  for k = retained_first l to l.total - 1 do
    load_record (buf_of l k) (slot_of l k * rbytes) scratch;
    f ~seq:k scratch 0
  done

let iter_merged t f =
  let ls = Array.of_list (lanes t) in
  let scratch = Array.make Record.words 0 in
  let cursor = Array.map retained_first ls in
  let n = Array.length ls in
  let exception Done in
  (try
     while true do
       let best = ref (-1) in
       let best_tick = ref max_int in
       for i = 0 to n - 1 do
         let l = ls.(i) in
         if cursor.(i) < l.total then begin
           let k = cursor.(i) in
           let tick = get_le (buf_of l k) (slot_of l k * rbytes) in
           (* Strict [<] keeps the earliest lane on ties: lanes are
              scanned in ascending id order. *)
           if !best < 0 || tick < !best_tick then begin
             best := i;
             best_tick := tick
           end
         end
       done;
       if !best < 0 then raise Done;
       let i = !best in
       let l = ls.(i) in
       let seq = cursor.(i) in
       cursor.(i) <- seq + 1;
       load_record (buf_of l seq) (slot_of l seq * rbytes) scratch;
       f ~lane:l.id ~seq scratch 0
     done
   with Done -> ())

let iter_events t f =
  let lookup = lookup t in
  iter_merged t (fun ~lane:_ ~seq:_ words off ->
      match Record.event_of_record ~lookup words off with
      | Some e -> f e
      | None -> ())

(* ------------------------------------------------------------------ *)
(* Segment completion.                                                *)

let write_segment oc t =
  if not t.finished then begin
    write_header t oc;
    List.iter
      (fun l ->
        let first = retained_first l in
        let count = l.total - first in
        if count > 0 then write_records t oc l ~first ~count;
        out_word t oc 2;
        out_word t oc l.id;
        out_word t oc l.total;
        out_word t oc l.dropped)
      (lanes t);
    out_word t oc 0;
    t.finished <- true
  end

(* ------------------------------------------------------------------ *)
(* Reading segments back.                                             *)

type read_lane = {
  rl_id : int;
  rl_first : int; (* logical seq of the first retained record *)
  rl_records : Bytes.t; (* little-endian words, as read *)
  rl_total : int;
  rl_dropped : int;
}

type segment = {
  seg_label : string;
  seg_interns : string array;
  seg_lanes : read_lane list;
}

let seg_label s = s.seg_label

let seg_lanes s = s.seg_lanes

let read_lane_id l = l.rl_id

let read_lane_total l = l.rl_total

let read_lane_dropped l = l.rl_dropped

let read_lane_retained l = Bytes.length l.rl_records / rbytes

let seg_lookup s = lookup_in s.seg_interns

let in64 b8 ic =
  really_input ic b8 0 8;
  Record.get64 b8 0

let in_string b8 ic =
  let len = in64 b8 ic in
  if len < 0 || len > 1 lsl 30 then failwith "corrupt segment: bad string length";
  really_input_string ic len

type partial_lane = {
  mutable pl_first : int;
  mutable pl_next : int;
  mutable pl_chunks : Bytes.t list; (* reversed *)
  mutable pl_total : int;
  mutable pl_dropped : int;
  mutable pl_seen_chunk : bool;
}

let read_segment_body b8 ic =
  let label = in_string b8 ic in
  let n_interns = in64 b8 ic in
  if n_interns < 0 || n_interns > 1 lsl 24 then
    failwith "corrupt segment: bad intern count";
  let interns = Array.init n_interns (fun _ -> in_string b8 ic) in
  let lanes : (int, partial_lane) Hashtbl.t = Hashtbl.create 4 in
  let get_lane id =
    match Hashtbl.find_opt lanes id with
    | Some p -> p
    | None ->
        let p =
          {
            pl_first = 0;
            pl_next = 0;
            pl_chunks = [];
            pl_total = 0;
            pl_dropped = 0;
            pl_seen_chunk = false;
          }
        in
        Hashtbl.replace lanes id p;
        p
  in
  let rec loop () =
    match in64 b8 ic with
    | 0 -> ()
    | 1 ->
        let id = in64 b8 ic in
        let first = in64 b8 ic in
        let count = in64 b8 ic in
        if count < 0 || count > 1 lsl 30 then
          failwith "corrupt segment: bad chunk length";
        let p = get_lane id in
        if not p.pl_seen_chunk then begin
          p.pl_first <- first;
          p.pl_next <- first;
          p.pl_seen_chunk <- true
        end;
        if first <> p.pl_next then
          failwith "corrupt segment: non-contiguous chunks";
        (* The words are in lane order already: one read, decoded in
           place as the records are iterated. *)
        let records = Bytes.create (count * rbytes) in
        really_input ic records 0 (count * rbytes);
        p.pl_chunks <- records :: p.pl_chunks;
        p.pl_next <- first + count;
        loop ()
    | 2 ->
        let id = in64 b8 ic in
        let total = in64 b8 ic in
        let dropped = in64 b8 ic in
        let p = get_lane id in
        p.pl_total <- total;
        p.pl_dropped <- dropped;
        loop ()
    | tag -> failwith (Printf.sprintf "corrupt segment: unknown tag %d" tag)
  in
  loop ();
  let seg_lanes =
    Hashtbl.fold
      (fun id p acc ->
        let records =
          match p.pl_chunks with
          | [ one ] -> one
          | chunks -> Bytes.concat Bytes.empty (List.rev chunks)
        in
        {
          rl_id = id;
          rl_first = p.pl_first;
          rl_records = records;
          rl_total = p.pl_total;
          rl_dropped = p.pl_dropped;
        }
        :: acc)
      lanes []
    |> List.sort (fun a b -> Int.compare a.rl_id b.rl_id)
  in
  { seg_label = label; seg_interns = interns; seg_lanes }

let read_segments ic =
  let b8 = Bytes.create 8 in
  let rec loop acc =
    match really_input_string ic 8 with
    | exception End_of_file -> List.rev acc
    | m when String.equal m magic ->
        let seg =
          try read_segment_body b8 ic
          with End_of_file -> failwith "corrupt segment: truncated"
        in
        loop (seg :: acc)
    | _ -> failwith "not a flight-recorder file (bad magic)"
  in
  loop []

let iter_segment seg f =
  let ls = Array.of_list seg.seg_lanes in
  let scratch = Array.make Record.words 0 in
  let cursor = Array.make (Array.length ls) 0 in
  let counts = Array.map read_lane_retained ls in
  let n = Array.length ls in
  let exception Done in
  (try
     while true do
       let best = ref (-1) in
       let best_tick = ref max_int in
       for i = 0 to n - 1 do
         if cursor.(i) < counts.(i) then begin
           let tick = get_le ls.(i).rl_records (cursor.(i) * rbytes) in
           if !best < 0 || tick < !best_tick then begin
             best := i;
             best_tick := tick
           end
         end
       done;
       if !best < 0 then raise Done;
       let i = !best in
       let idx = cursor.(i) in
       cursor.(i) <- idx + 1;
       load_record ls.(i).rl_records (idx * rbytes) scratch;
       f ~lane:ls.(i).rl_id ~seq:(ls.(i).rl_first + idx) scratch 0
     done
   with Done -> ())
