(* Buckets need head access (service and longest-queue drop) and tail
   insertion; rings do both without a per-push cell. *)
type t = {
  buckets : Ring.t array;
  pool : Packet_pool.t;
  capacity : int;
  mutable total : int;
  mutable next : int; (* round-robin service pointer *)
  mutable hwm : int;
  (* Optional flight-recorder wiring (set post-construction): records
     the discipline's drop decisions — including push-out victims, which
     only SFQ produces — with queue-name attribution. *)
  mutable rlane : Telemetry.Recorder.lane option;
  mutable rsid : int;
  (* Optional smoothed-occupancy estimate (RED [w_q] semantics, sampled
     per arrival over the total occupancy). Flat [|avg; w_q|] array so
     the per-arrival update stays unboxed; [w_q = 0.] = disabled. *)
  ewma : float array;
}

let create ?(buckets = 16) ~pool ~capacity () =
  if capacity < 1 then invalid_arg "Sfq.create: capacity < 1";
  if buckets < 1 then invalid_arg "Sfq.create: buckets < 1";
  {
    buckets = Array.init buckets (fun _ -> Ring.create ());
    pool;
    capacity;
    total = 0;
    next = 0;
    hwm = 0;
    rlane = None;
    rsid = 0;
    ewma = Array.make 2 0.;
  }

let enable_avg t ~w_q =
  if w_q <= 0. || w_q > 1. then invalid_arg "Sfq.enable_avg: bad w_q";
  t.ewma.(1) <- w_q

let avg_into t cell = cell.(0) <- t.ewma.(0)

let set_recorder t ~recorder ~name =
  t.rlane <- Some (Telemetry.Recorder.lane recorder 0);
  t.rsid <- Telemetry.Recorder.intern recorder name

let record_drop t now h =
  match t.rlane with
  | None -> ()
  | Some lane ->
      let bits = Telemetry.Record.bits_of_nonneg_int t.total in
      Telemetry.Recorder.record lane ~tick:now
        ~kind:Telemetry.Record.queue_forced_drop
        ~flow:(Packet_pool.flow t.pool h) ~a:(Packet_pool.uid t.pool h)
        ~b:(bits lsr 32) ~c:(bits land 0xFFFF_FFFF)
        ~sid:t.rsid ~depth:t.total

(* The pair [(flow, 0)], not the bare flow, is hashed: that is the
   bucket assignment every pinned SFQ trajectory was recorded with. *)
let bucket_of_flow t flow = Hashtbl.hash (flow, 0) mod Array.length t.buckets

let longest_bucket t =
  let best = ref 0 and best_len = ref (-1) in
  Array.iteri
    (fun i q ->
      if Ring.length q > !best_len then begin
        best := i;
        best_len := Ring.length q
      end)
    t.buckets;
  !best

let enqueue ~now t h =
  let w_q = t.ewma.(1) in
  if w_q > 0. then
    t.ewma.(0) <-
      ((1. -. w_q) *. t.ewma.(0)) +. (w_q *. float_of_int t.total);
  let idx = bucket_of_flow t (Packet_pool.flow t.pool h) in
  if t.total < t.capacity then begin
    Ring.push t.buckets.(idx) h;
    t.total <- t.total + 1;
    if t.total > t.hwm then t.hwm <- t.total;
    `Enqueued
  end
  else begin
    let longest = longest_bucket t in
    if longest = idx then begin
      record_drop t now h;
      `Dropped
    end
    else begin
      let victim = Ring.pop_exn t.buckets.(longest) in
      record_drop t now victim;
      Ring.push t.buckets.(idx) h;
      `Enqueued_dropping victim
    end
  end

let dequeue t =
  let n = Array.length t.buckets in
  let rec scan tried =
    if tried = n then Packet_pool.nil
    else begin
      let idx = (t.next + tried) mod n in
      if Ring.is_empty t.buckets.(idx) then scan (tried + 1)
      else begin
        let h = Ring.pop_exn t.buckets.(idx) in
        t.total <- t.total - 1;
        (* Resume after this bucket next time. *)
        t.next <- (idx + 1) mod n;
        h
      end
    end
  in
  scan 0

let length t = t.total

let occupancy t = Array.map Ring.length t.buckets

let high_water_mark t = t.hwm
