module Time = Sim_engine.Time
module Scheduler = Sim_engine.Scheduler
module Rng = Sim_engine.Rng
module Link = Netsim.Link
module Units = Netsim.Units
module Queue_disc = Netsim.Queue_disc
module Packet_pool = Netsim.Packet_pool
module Team = Parallel.Pool.Team

(* Sharded conservative PDES over the paper's dumbbell.

   The client population is partitioned into K contiguous shards, each
   owning its clients' access links, transports, timers, packet pool and
   event queue on its own domain; the bottleneck link, RED gateway and
   every bottleneck-anchored measurement live in a hub simulated by rank
   0 (alongside shard 0). All four topology crossings — client data into
   the gateway, gateway data out to the server-side receivers, ACKs into
   the reverse bottleneck, delivered ACKs back down the access links —
   traverse a propagation leg of at least

     W = min(min_i client_delay_i, bottleneck_delay)

   so domains can simulate [W]-wide time windows independently and
   exchange packets at window boundaries with zero rollback: a packet
   emitted inside window [w] cannot arrive before window [w] ends. The
   propagation leg of every boundary link is simulated on the *sending*
   side ({!Link.set_handoff} computes the arrival time at serialization
   end), which keeps per-packet timing identical to a single-domain
   build of the same windowed machinery.

   Determinism: a K-shard run is bit-identical to a 1-shard run of the
   same seed. Per-flow state only ever meets other flows at the hub, and
   every batch crossing a domain boundary is sorted by
   (arrival tick, flow, emission order) before its events are inserted —
   a total order independent of K. Uids come from per-flow counters
   ({!Packet_pool.set_uid_source}) so they do not leak cross-flow
   allocation interleaving, and every RNG stream is split by name from
   the run seed exactly as the classic engine does. Traces are recorded
   per domain and replayed in canonical (time, line) order. *)

(* ------------------------------------------------------------------ *)
(* Cross-domain packet batches *)

(* One message = [stride] ints: arrival tick, uid, flow, src, dst, size,
   seq-or-ack word, sent-at tick, raw flags word, SACK block count and
   up to four (first, last_exclusive) SACK pairs — everything
   {!Packet_pool.import} needs to rehydrate the packet bit-for-bit. *)
let stride = 18

let max_sack = 4

let idx_mask = (1 lsl 40) - 1

module Msgs = struct
  type t = { mutable buf : int array; mutable len : int; mutable total : int }

  let create () = { buf = Array.make (64 * stride) 0; len = 0; total = 0 }

  let count t = t.len / stride

  let clear t = t.len <- 0

  let ensure t extra =
    if t.len + extra > Array.length t.buf then begin
      let ncap = ref (2 * Array.length t.buf) in
      while t.len + extra > !ncap do
        ncap := 2 * !ncap
      done;
      let nbuf = Array.make !ncap 0 in
      Array.blit t.buf 0 nbuf 0 t.len;
      t.buf <- nbuf
    end

  (* Producer side: copy a live packet's fields in and free it — the
     packet's onward life happens in the destination domain's pool. *)
  let ship t pool arrival h =
    ensure t stride;
    let b = t.len in
    let buf = t.buf in
    buf.(b) <- Time.to_ns arrival;
    buf.(b + 1) <- Packet_pool.uid pool h;
    buf.(b + 2) <- Packet_pool.flow pool h;
    buf.(b + 3) <- Packet_pool.src pool h;
    buf.(b + 4) <- Packet_pool.dst pool h;
    buf.(b + 5) <- Packet_pool.size_bytes pool h;
    buf.(b + 6) <- Packet_pool.word pool h;
    buf.(b + 7) <- Time.to_ns (Packet_pool.sent_at pool h);
    buf.(b + 8) <- Packet_pool.flags_word pool h;
    (match Packet_pool.sack pool h with
    | [] -> buf.(b + 9) <- 0
    | blocks ->
        let k = ref 0 in
        List.iter
          (fun (first, last) ->
            if !k < max_sack then begin
              buf.(b + 10 + (2 * !k)) <- first;
              buf.(b + 11 + (2 * !k)) <- last;
              incr k
            end)
          blocks;
        buf.(b + 9) <- !k);
    t.len <- b + stride;
    t.total <- t.total + 1;
    Packet_pool.free pool h

  let blit_from t src idx =
    ensure t stride;
    Array.blit src.buf (idx * stride) t.buf t.len stride;
    t.len <- t.len + stride
end

(* In-place heapsort of [a.(0 .. n-1)]: allocation-free, and since the
   comparison below is a total order (no two messages compare equal) the
   result does not depend on the algorithm's stability. *)
let sort_prefix a n cmp =
  let swap i j =
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  in
  let rec sift i len =
    let l = (2 * i) + 1 in
    if l < len then begin
      let c = if l + 1 < len && cmp a.(l) a.(l + 1) < 0 then l + 1 else l in
      if cmp a.(i) a.(c) < 0 then begin
        swap i c;
        sift c len
      end
    end
  in
  for i = (n / 2) - 1 downto 0 do
    sift i n
  done;
  for len = n - 1 downto 1 do
    swap 0 len;
    sift 0 len
  done

(* ------------------------------------------------------------------ *)
(* Domain-local topology halves *)

type shard = {
  sched : Scheduler.t;
  pool : Packet_pool.t;
  clients : Dumbbell.clients;
  out : Msgs.t; (* to the hub; drained by rank 0 between windows *)
}

type hub = {
  hsched : Scheduler.t;
  hpool : Packet_pool.t;
  bottleneck : Link.t; (* handoff *)
  reverse : Link.t; (* delay 0; deliver routes into [hout] *)
  hout : Msgs.t array; (* one ring per destination shard *)
}

(* A destination's import side: R rotating frozen batches (a message
   scheduled at the end of window [w] can fire up to [lmax/W] windows
   later, so batch [w]'s storage must survive until then), a sort
   scratch array and the preallocated keyed-event callback. *)
type inbox = {
  bufs : Msgs.t array;
  mutable order : int array;
  srcs : Msgs.t array;
  cmp : int -> int -> int;
  isched : Scheduler.t;
  import : int -> unit;
}

let make_cmp srcs a b =
  let oa = (a land idx_mask) * stride and ob = (b land idx_mask) * stride in
  let ba = srcs.(a lsr 40).Msgs.buf and bb = srcs.(b lsr 40).Msgs.buf in
  if ba.(oa) <> bb.(ob) then compare ba.(oa) bb.(ob)
  else if ba.(oa + 2) <> bb.(ob + 2) then compare ba.(oa + 2) bb.(ob + 2)
  else compare (a land idx_mask) (b land idx_mask)

(* Top-level, not a local closure over [buf] and [o]: a crossing with
   no SACK block then allocates nothing. *)
let rec sack_blocks buf o k acc =
  if k < 0 then acc
  else
    sack_blocks buf o (k - 1)
      ((buf.(o + 10 + (2 * k)), buf.(o + 11 + (2 * k))) :: acc)

let read_sack buf o = sack_blocks buf o (buf.(o + 9) - 1) []

let import_packet pool buf o =
  Packet_pool.import pool ~uid:buf.(o + 1) ~flow:buf.(o + 2) ~src:buf.(o + 3)
    ~dst:buf.(o + 4) ~size_bytes:buf.(o + 5) ~word:buf.(o + 6)
    ~sent_at:(Time.of_ns buf.(o + 7))
    ~flags:buf.(o + 8) ~sack:(read_sack buf o)

(* Rank 0, between barriers: sort this window's batch, copy it into the
   rotation slot and schedule one keyed import event per message. The
   sorted insertion order fixes the destination queue's tie-break
   sequence numbers identically for every K. *)
let merge_window inbox ~window =
  let total = Array.fold_left (fun acc s -> acc + Msgs.count s) 0 inbox.srcs in
  if total > 0 then begin
    if Array.length inbox.order < total then
      inbox.order <- Array.make (2 * total) 0;
    let order = inbox.order in
    let k = ref 0 in
    Array.iteri
      (fun ring src ->
        for idx = 0 to Msgs.count src - 1 do
          order.(!k) <- (ring lsl 40) lor idx;
          incr k
        done)
      inbox.srcs;
    sort_prefix order total inbox.cmp;
    let slot = window mod Array.length inbox.bufs in
    let buf = inbox.bufs.(slot) in
    Msgs.clear buf;
    for i = 0 to total - 1 do
      let e = order.(i) in
      let src = inbox.srcs.(e lsr 40) in
      Msgs.blit_from buf src (e land idx_mask);
      let arrival = Time.of_ns buf.Msgs.buf.(i * stride) in
      ignore
        (Scheduler.at_keyed inbox.isched arrival inbox.import
           ((slot lsl 40) lor i))
    done
  end;
  Array.iter Msgs.clear inbox.srcs

(* ------------------------------------------------------------------ *)
(* Window size: the conservative lookahead *)

let min_client_delay_s cfg =
  if cfg.Config.client_delay_spread_s = 0. then cfg.Config.client_delay_s
  else
    Stdlib.max 1e-4
      (cfg.Config.client_delay_s -. (cfg.Config.client_delay_spread_s /. 2.))

let window_s cfg =
  Stdlib.min cfg.Config.bottleneck_delay_s (min_client_delay_s cfg)

let max_lag_s cfg =
  Stdlib.max cfg.Config.bottleneck_delay_s
    (cfg.Config.client_delay_s +. (cfg.Config.client_delay_spread_s /. 2.))

(* ------------------------------------------------------------------ *)

let lossless_capacity = 1_000_000

let run ?probe ?(trace_clients = []) ?(sample_queue = false)
    ?(measure_sync = false) cfg scenario =
  Config.validate cfg;
  if cfg.Config.shards < 1 then invalid_arg "Pdes.run: shards < 1";
  let n = cfg.Config.clients in
  let shards_n = Stdlib.min cfg.Config.shards n in
  let time name f = Telemetry.Probe.time probe name f in
  let run_label =
    Printf.sprintf "%s n=%d shards=%d" (Scenario.label scenario) n shards_n
  in
  let horizon = Time.of_sec cfg.Config.duration_s in
  let wspan = Stdlib.max 1 (Time.to_ns (Time.of_sec (window_s cfg))) in
  let windows = ((Time.to_ns horizon + wspan) - 1) / wspan in
  let rotation =
    2 + int_of_float (Float.ceil (max_lag_s cfg /. window_s cfg))
  in
  let lo_of s = s * n / shards_n in
  let shard_of = Array.make n 0 in
  for s = 0 to shards_n - 1 do
    for i = lo_of s to lo_of (s + 1) - 1 do
      shard_of.(i) <- s
    done
  done;
  (* One global draw, as the classic engine's, so sharding cannot move it. *)
  let delays = Dumbbell.client_delays cfg in
  (* Per-flow uid counters: uids become a pure function of per-flow
     history, so they cannot leak cross-flow allocation interleaving
     (which is the one thing that differs between shardings). *)
  let uid_count = Array.make n 0 in
  let uid_source flow =
    let u = ((flow + 1) lsl 32) lor uid_count.(flow) in
    uid_count.(flow) <- uid_count.(flow) + 1;
    u
  in
  let bottleneck_bw = Units.mbps cfg.Config.bottleneck_bandwidth_mbps in
  let bottleneck_delay = Time.of_sec cfg.Config.bottleneck_delay_s in
  (* One parity recorder per domain (the hub, then each shard) while the
     probe's bus has subscribers, replayed after the run. *)
  let trace_recorder () = Option.bind probe Telemetry.Probe.trace_recorder in
  let hrec = trace_recorder () in
  let srecs = Array.init shards_n (fun _ -> trace_recorder ()) in
  let hub, shards, meter, hub_inbox, shard_inboxes =
    time "setup" (fun () ->
        (* --- hub ------------------------------------------------- *)
        let hsched =
          Scheduler.create
            ~queue_capacity:(64 + (n * ((2 * cfg.Config.adv_window) + 8)))
            ()
        in
        let hpool =
          Packet_pool.create
            ~capacity:
              (64 + cfg.Config.buffer_packets
              + (n * (cfg.Config.adv_window + 2)))
            ()
        in
        let hrng = Rng.create ~seed:cfg.Config.seed in
        let gateway =
          Dumbbell.gateway_queue ?recorder:hrec cfg scenario hrng hpool
        in
        let hout = Array.init shards_n (fun _ -> Msgs.create ()) in
        let bottleneck =
          Link.create hsched ~name:"bottleneck" ~bandwidth:bottleneck_bw
            ~delay:bottleneck_delay ~queue:gateway ~pool:hpool
            ~deliver:(fun _ -> assert false)
        in
        Link.set_handoff bottleneck (fun arrival h ->
            let s = shard_of.(Packet_pool.flow hpool h) in
            Msgs.ship hout.(s) hpool arrival h);
        (* The reverse bottleneck's propagation was already applied on
           the shard side (the ACK arrives here [bottleneck_delay] after
           the receiver emitted it), so this half only serializes; the
           downstream access-link propagation is applied now, on the
           sending side of the next crossing. *)
        let reverse =
          Link.create hsched ~name:"bottleneck-rev" ~bandwidth:bottleneck_bw
            ~delay:Time.zero
            ~queue:(Queue_disc.droptail ~capacity:lossless_capacity)
            ~pool:hpool
            ~deliver:(fun _ -> assert false)
        in
        Link.set_handoff reverse (fun arrival h ->
            let flow = Packet_pool.flow hpool h in
            Msgs.ship hout.(shard_of.(flow)) hpool
              (Time.add arrival delays.(flow))
              h);
        Option.iter (Link.record bottleneck) hrec;
        let hub = { hsched; hpool; bottleneck; reverse; hout } in
        (* --- shards ---------------------------------------------- *)
        let shards =
          Array.init shards_n (fun s ->
              let lo = lo_of s in
              let n_local = lo_of (s + 1) - lo in
              let sched =
                Scheduler.create
                  ~queue_capacity:
                    (64 + (n_local * ((4 * cfg.Config.adv_window) + 8)))
                  ()
              in
              let pool =
                Packet_pool.create
                  ~capacity:(64 + (n_local * ((2 * cfg.Config.adv_window) + 4)))
                  ()
              in
              Packet_pool.set_uid_source pool (Some uid_source);
              let out = Msgs.create () in
              (* Both client crossings ship to the hub. The down links'
                 propagation was already applied on the hub side, and the
                 reverse bottleneck's is pre-applied to each ACK here, so
                 the hub half can serialize with zero delay. *)
              let clients =
                Dumbbell.build_clients ~recorder:srecs.(s) ~trace_clients cfg
                  scenario sched pool ~lo ~n:n_local
                  ~up_delay:(Array.get delays)
                  ~down_delay:(fun _ -> Time.zero)
                  ~data:(Dumbbell.Handoff (Msgs.ship out pool))
                  ~ack:(fun p ->
                    Msgs.ship out pool
                      (Time.add (Scheduler.now sched) bottleneck_delay)
                      p)
              in
              (* Per-client named streams, as in the classic engine. *)
              Dumbbell.start_poisson cfg
                ~master:(Rng.create ~seed:cfg.Config.seed)
                clients;
              { sched; pool; clients; out })
        in
        (* Every bottleneck monitor lives on the hub, the hybrid quantum
           tick included: it reads only hub-local state, so hybrid runs
           stay K-invariant too. *)
        let meter =
          Meter.attach ?probe ~sample_queue ~measure_sync ~sched:hsched
            ~pool:hpool bottleneck cfg
        in
        (* --- inboxes: one import side per destination domain ------ *)
        let hub_inbox =
          let srcs = Array.map (fun sh -> sh.out) shards in
          let bufs = Array.init rotation (fun _ -> Msgs.create ()) in
          let import key =
            let buf = bufs.(key lsr 40).Msgs.buf in
            let o = (key land idx_mask) * stride in
            let h = import_packet hpool buf o in
            if Packet_pool.kind hpool h = Packet_pool.Tcp_ack then
              Link.send reverse h
            else Link.send bottleneck h
          in
          { bufs; order = [||]; srcs; cmp = make_cmp srcs; isched = hsched; import }
        in
        let shard_inboxes =
          Array.mapi
            (fun s sh ->
              let srcs = [| hout.(s) |] in
              let bufs = Array.init rotation (fun _ -> Msgs.create ()) in
              let import key =
                let buf = bufs.(key lsr 40).Msgs.buf in
                let o = (key land idx_mask) * stride in
                let h = import_packet sh.pool buf o in
                if Packet_pool.kind sh.pool h = Packet_pool.Tcp_ack then
                  Dumbbell.deliver_ack sh.clients h
                else Dumbbell.deliver_data sh.clients h
              in
              {
                bufs;
                order = [||];
                srcs;
                cmp = make_cmp srcs;
                isched = sh.sched;
                import;
              })
            shards
        in
        (hub, shards, meter, hub_inbox, shard_inboxes))
  in
  (* Per-rank worker probes: shard phase timers and counters travel back
     through the same {!Telemetry.Probe.merge} path parallel sweeps use. *)
  let worker_probes =
    match probe with
    | Some p -> Array.init shards_n (fun _ -> Telemetry.Probe.create_like p)
    | None -> [||]
  in
  let gc_by_rank = Array.make shards_n Telemetry.Perf.gc_zero in
  let run_wall, run_gc =
    let t0 = Telemetry.Perf.wall_clock_s () in
    Team.with_team ~domains:shards_n (fun team ->
        Team.run team (fun rank ->
            let g0 = Telemetry.Perf.gc_read () in
            let w0 = Telemetry.Perf.wall_clock_s () in
            for w = 1 to windows do
              let upto =
                if w = windows then horizon else Time.of_ns (w * wspan)
              in
              Scheduler.run ~until:upto shards.(rank).sched;
              if rank = 0 then Scheduler.run ~until:upto hub.hsched;
              Team.barrier team;
              if rank = 0 && w < windows then begin
                merge_window hub_inbox ~window:w;
                Array.iter (fun ib -> merge_window ib ~window:w) shard_inboxes
              end;
              Team.barrier team
            done;
            gc_by_rank.(rank) <- Telemetry.Perf.gc_since g0;
            if Array.length worker_probes > 0 then
              Telemetry.Perf.add_s
                worker_probes.(rank).Telemetry.Probe.phases "shard-run"
                (Telemetry.Perf.wall_clock_s () -. w0)));
    let dt = Telemetry.Perf.wall_clock_s () -. t0 in
    let gc =
      Array.fold_left
        (fun acc g ->
          {
            Telemetry.Perf.minor_words =
              acc.Telemetry.Perf.minor_words +. g.Telemetry.Perf.minor_words;
            promoted_words =
              acc.Telemetry.Perf.promoted_words
              +. g.Telemetry.Perf.promoted_words;
            major_collections =
              acc.Telemetry.Perf.major_collections
              + g.Telemetry.Perf.major_collections;
          })
        Telemetry.Perf.gc_zero gc_by_rank
    in
    (match probe with
    | Some p -> Telemetry.Perf.add_s p.Telemetry.Probe.phases "run" dt
    | None -> ());
    (dt, gc)
  in
  (match (probe, List.filter_map Fun.id (hrec :: Array.to_list srecs)) with
  | Some p, (_ :: _ as recs) ->
      time "trace-merge" (fun () -> Telemetry.Probe.replay_canonical p recs)
  | _ -> ());
  (* Messages still sitting in cross-domain rings were freed when
     shipped, so a clean run drains every pool to zero. *)
  Dumbbell.finish_clients
    ~links:[ hub.bottleneck; hub.reverse ]
    ~pool:hub.hpool ~trace_clients
    (Array.to_list (Array.map (fun sh -> sh.clients) shards))
    (fun endpoints ->
      let metrics =
        time "collect" (fun () -> Meter.metrics meter scenario endpoints)
      in
      Option.iter (fun p -> Meter.export meter p ~label:run_label metrics) probe;
      (match probe with
      | Some p ->
          (* Shard-side telemetry rides worker probes through the sweep-
             proven merge path: per-shard boundary-message counters and
             the shard-run phase timers fold into the main registry
             here. *)
          Array.iteri
            (fun s wp ->
              let c =
                Telemetry.Registry.counter wp.Telemetry.Probe.registry
                  ~help:"Packets shipped across PDES shard boundaries"
                  ~labels:[ ("shard", string_of_int s) ]
                  "pdes_boundary_packets_total"
              in
              Telemetry.Registry.inc
                ~by:(shards.(s).out.Msgs.total + hub.hout.(s).Msgs.total)
                c;
              Telemetry.Probe.merge ~into:p wp)
            worker_probes;
          let events =
            Scheduler.events_processed hub.hsched
            + Array.fold_left
                (fun acc sh -> acc + Scheduler.events_processed sh.sched)
                0 shards
          in
          let eq_hwm =
            Array.fold_left
              (fun acc sh ->
                Stdlib.max acc (Scheduler.queue_high_water_mark sh.sched))
              (Scheduler.queue_high_water_mark hub.hsched)
              shards
          in
          Meter.note_run meter p ~label:run_label ~wall_s:run_wall ~events
            ~event_queue_hwm:eq_hwm ~gc:run_gc
      | None -> ());
      metrics)
