(* Tests for the network layer: units, pooled packets, queues, links,
   routing, monitors. *)

open Netsim
module Time = Sim_engine.Time
module Scheduler = Sim_engine.Scheduler
module Rng = Sim_engine.Rng
module Pool = Packet_pool

let check_float = Alcotest.(check (float 1e-9))

let mk_packet ?(flow = 0) ?(src = 1) ?(dst = 0) ?(size = 1000) ?(seq = 0) pool =
  Pool.alloc_data pool ~flow ~src ~dst ~size_bytes:size ~sent_at:Time.zero ~seq
    ~is_retransmit:false ()

(* ------------------------------------------------------------------ *)
(* Units *)

let units_transmission_time () =
  (* 1000 bytes at 1 Mbps = 8 ms *)
  let bw = Units.mbps 1. in
  check_float "tx time" 0.008 (Time.to_sec (Units.transmission_time bw ~bytes:1000));
  check_float "bytes/s" 125000. (Units.bytes_per_sec bw);
  check_float "kbps" 5000. (Units.to_bps (Units.kbps 5.));
  check_float "gbps" 2e9 (Units.to_bps (Units.gbps 2.))

let units_invalid () =
  Alcotest.check_raises "zero" (Invalid_argument "Units.bps: non-positive") (fun () ->
      ignore (Units.bps 0.))

(* ------------------------------------------------------------------ *)
(* Packet pool *)

let pool_uids_unique () =
  let pool = Pool.create () in
  let a = mk_packet pool and b = mk_packet pool in
  Alcotest.(check bool) "distinct uids" true (Pool.uid pool a <> Pool.uid pool b)

let pool_classifiers () =
  let pool = Pool.create () in
  let data = mk_packet ~seq:7 pool in
  let ack =
    Pool.alloc_ack pool ~flow:0 ~src:0 ~dst:1 ~size_bytes:40 ~sent_at:Time.zero
      ~ack:3 ~ece:false ~sack:[] ()
  in
  let udp =
    Pool.alloc_udp pool ~flow:0 ~src:1 ~dst:0 ~size_bytes:100 ~sent_at:Time.zero
      ~seq:9 ()
  in
  Alcotest.(check bool) "data is data" true (Pool.is_data pool data);
  Alcotest.(check bool) "ack not data" false (Pool.is_data pool ack);
  Alcotest.(check bool) "udp is data" true (Pool.is_data pool udp);
  Alcotest.(check (option int)) "seq data" (Some 7) (Pool.seq_opt pool data);
  Alcotest.(check (option int)) "seq ack" None (Pool.seq_opt pool ack);
  Alcotest.(check (option int)) "seq udp" (Some 9) (Pool.seq_opt pool udp);
  Alcotest.(check int) "ack word" 3 (Pool.ack pool ack);
  Alcotest.(check bool) "not rtx" false (Pool.is_retransmit pool data)

let pool_stale_handle_raises () =
  let pool = Pool.create () in
  let h = mk_packet ~seq:11 pool in
  Alcotest.(check int) "live before free" 1 (Pool.live pool);
  Pool.free pool h;
  Alcotest.(check int) "live after free" 0 (Pool.live pool);
  (* Every accessor must reject the stale handle loudly. *)
  let expect_invalid label f =
    match f () with
    | _ -> Alcotest.failf "%s: stale handle accepted" label
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "flow" (fun () -> Pool.flow pool h);
  expect_invalid "seq" (fun () -> Pool.seq pool h);
  expect_invalid "size" (fun () -> Pool.size_bytes pool h);
  expect_invalid "kind" (fun () -> Pool.kind pool h);
  expect_invalid "double free" (fun () -> Pool.free pool h);
  expect_invalid "nil" (fun () -> Pool.flow pool Pool.nil)

let pool_recycled_slot_does_not_alias () =
  let pool = Pool.create () in
  let a = mk_packet ~flow:1 ~seq:100 pool in
  Pool.free pool a;
  (* The next allocation reuses a's slot (LIFO free list) but must get a
     fresh generation: the old handle stays dead, the new one reads the
     new packet's fields. *)
  let b = mk_packet ~flow:2 ~seq:200 pool in
  Alcotest.(check bool) "handles differ" true (a <> b);
  Alcotest.(check int) "new fields" 200 (Pool.seq pool b);
  Alcotest.(check int) "new flow" 2 (Pool.flow pool b);
  (match Pool.flow pool a with
  | _ -> Alcotest.fail "old handle reads recycled slot"
  | exception Invalid_argument _ -> ());
  Pool.free pool b;
  Alcotest.(check int) "drained" 0 (Pool.live pool)

let pool_accounting () =
  let pool = Pool.create ~capacity:2 () in
  let hs = List.init 5 (fun i -> mk_packet ~seq:i pool) in
  Alcotest.(check int) "live" 5 (Pool.live pool);
  Alcotest.(check int) "high water" 5 (Pool.high_water_mark pool);
  Alcotest.(check int) "allocated" 5 (Pool.allocated pool);
  List.iter (Pool.free pool) hs;
  Alcotest.(check int) "drained" 0 (Pool.live pool);
  ignore (mk_packet pool);
  Alcotest.(check int) "peak survives" 5 (Pool.high_water_mark pool);
  Alcotest.(check int) "allocated keeps counting" 6 (Pool.allocated pool)

let pool_sack_side_table () =
  let pool = Pool.create () in
  let blocks = [ (4, 6); (9, 12) ] in
  let h =
    Pool.alloc_ack pool ~flow:3 ~src:0 ~dst:1 ~size_bytes:40 ~sent_at:Time.zero
      ~ack:4 ~ece:true ~sack:blocks ()
  in
  Alcotest.(check bool) "ece" true (Pool.ece pool h);
  Alcotest.(check (list (pair int int))) "sack blocks" blocks (Pool.sack pool h);
  Pool.free pool h;
  (* Recycling the slot must not leak the old SACK list into a fresh ACK. *)
  let h2 =
    Pool.alloc_ack pool ~flow:3 ~src:0 ~dst:1 ~size_bytes:40 ~sent_at:Time.zero
      ~ack:5 ~ece:false ~sack:[] ()
  in
  Alcotest.(check (list (pair int int))) "fresh ack has no sack" [] (Pool.sack pool h2)

(* ------------------------------------------------------------------ *)
(* Droptail *)

let droptail_capacity () =
  let pool = Pool.create () in
  let q = Droptail.create ~capacity:2 in
  Alcotest.(check bool) "first" true (Droptail.enqueue ~now:0 q (mk_packet pool) = `Enqueued);
  Alcotest.(check bool) "second" true (Droptail.enqueue ~now:0 q (mk_packet pool) = `Enqueued);
  Alcotest.(check bool) "third dropped" true (Droptail.enqueue ~now:0 q (mk_packet pool) = `Dropped);
  Alcotest.(check int) "length" 2 (Droptail.length q);
  ignore (Droptail.dequeue q);
  Alcotest.(check bool) "room again" true (Droptail.enqueue ~now:0 q (mk_packet pool) = `Enqueued)

let droptail_high_water_mark () =
  let pool = Pool.create () in
  let q = Droptail.create ~capacity:5 in
  Alcotest.(check int) "starts at 0" 0 (Droptail.high_water_mark q);
  List.iter (fun _ -> ignore (Droptail.enqueue ~now:0 q (mk_packet pool))) [ 1; 2; 3 ];
  ignore (Droptail.dequeue q);
  ignore (Droptail.dequeue q);
  Alcotest.(check int) "peak survives dequeues" 3 (Droptail.high_water_mark q);
  ignore (Droptail.enqueue ~now:0 q (mk_packet pool));
  Alcotest.(check int) "below peak: unchanged" 3 (Droptail.high_water_mark q);
  (* The dispatching wrapper reports the same number. *)
  let qd = Queue_disc.droptail ~capacity:2 in
  ignore (Queue_disc.enqueue qd ~now:Time.zero (mk_packet pool));
  Alcotest.(check int) "queue_disc dispatch" 1 (Queue_disc.high_water_mark qd)

let droptail_fifo_order () =
  let pool = Pool.create () in
  let q = Droptail.create ~capacity:10 in
  let ps = List.init 5 (fun i -> mk_packet ~seq:i pool) in
  List.iter (fun p -> ignore (Droptail.enqueue ~now:0 q p)) ps;
  let out = List.init 5 (fun _ -> Droptail.dequeue q) in
  Alcotest.(check (list int))
    "fifo"
    (List.map (Pool.seq pool) ps)
    (List.map (Pool.seq pool) out);
  Alcotest.(check bool) "drained" true (Pool.is_nil (Droptail.dequeue q))

(* ------------------------------------------------------------------ *)
(* RED *)

let red_params capacity =
  {
    Red.min_th = 5.;
    max_th = 15.;
    max_p = 0.1;
    w_q = 0.5;
    (* fast-moving average so tests converge quickly *)
    capacity;
    idle_packet_time = 0.001;
    ecn_mark = false;
    adaptive = false;
  }

let red_no_drops_below_min_th () =
  let pool = Pool.create () in
  let rng = Rng.create ~seed:1L in
  let q = Red.create ~rng ~pool (red_params 100) in
  for i = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "enqueue %d" i)
      true
      (Red.enqueue q ~now:Time.zero (mk_packet pool) = `Enqueued)
  done;
  Alcotest.(check int) "queued" 4 (Red.length q)

let red_always_drops_above_max_th () =
  let pool = Pool.create () in
  let rng = Rng.create ~seed:2L in
  let q = Red.create ~rng ~pool (red_params 100) in
  (* Fill to 40 without dequeue: average chases instantaneous with w_q=0.5,
     so it passes max_th = 15 well before 40. *)
  let results = List.init 40 (fun _ -> Red.enqueue q ~now:Time.zero (mk_packet pool)) in
  Alcotest.(check bool) "avg above max_th" true (Red.avg q > 15.);
  let last = List.nth results 39 in
  Alcotest.(check bool) "forced drop" true (last = `Dropped)

let red_physical_capacity () =
  let pool = Pool.create () in
  let rng = Rng.create ~seed:3L in
  (* min_th huge: RED never early-drops, only physical overflow. *)
  let q =
    Red.create ~rng ~pool
      { (red_params 3) with Red.min_th = 1000.; max_th = 2000.; w_q = 0.001 }
  in
  let r = List.init 5 (fun _ -> Red.enqueue q ~now:Time.zero (mk_packet pool)) in
  Alcotest.(check int) "held 3" 3 (Red.length q);
  Alcotest.(check bool) "4th dropped" true (List.nth r 3 = `Dropped)

let red_early_drop_probabilistic () =
  let pool = Pool.create () in
  let rng = Rng.create ~seed:4L in
  let q = Red.create ~rng ~pool (red_params 1000) in
  (* Hold the queue between thresholds and count early drops. *)
  let drops = ref 0 and total = 5000 in
  for _ = 1 to total do
    (match Red.enqueue q ~now:Time.zero (mk_packet pool) with
    | `Dropped -> incr drops
    | `Enqueued -> ());
    (* keep instantaneous length near 10 (between 5 and 15) *)
    while Red.length q > 10 do
      let h = Red.dequeue q ~now:Time.zero in
      Pool.free pool h
    done
  done;
  let rate = float_of_int !drops /. float_of_int total in
  Alcotest.(check bool)
    (Printf.sprintf "early-drop rate %.3f in (0, 0.3)" rate)
    true
    (rate > 0.005 && rate < 0.3)

let red_average_decays_when_idle () =
  let pool = Pool.create () in
  let rng = Rng.create ~seed:5L in
  let q = Red.create ~rng ~pool (red_params 100) in
  for _ = 1 to 10 do
    ignore (Red.enqueue q ~now:Time.zero (mk_packet pool))
  done;
  let avg_busy = Red.avg q in
  while Red.length q > 0 do
    Pool.free pool (Red.dequeue q ~now:(Time.of_sec 1.))
  done;
  ignore (Red.enqueue q ~now:(Time.of_sec 10.) (mk_packet pool));
  Alcotest.(check bool) "decayed" true (Red.avg q < avg_busy /. 2.)

let mk_ecn_packet pool =
  Pool.alloc_data pool ~ecn_capable:true ~flow:0 ~src:1 ~dst:0 ~size_bytes:1000
    ~sent_at:Time.zero ~seq:0 ~is_retransmit:false ()

let red_marks_instead_of_dropping () =
  let pool = Pool.create () in
  let rng = Rng.create ~seed:7L in
  (* max_p = 1 in the marking band: every arrival between thresholds gets
     an early "drop", which for capable packets becomes a CE mark. *)
  let q =
    Red.create ~rng ~pool { (red_params 1000) with Red.max_p = 1.; ecn_mark = true }
  in
  (* Push the average between min_th (5) and max_th (15). *)
  let enqueued = ref 0 and dropped = ref 0 in
  let saw_ce = ref false in
  for _ = 1 to 200 do
    (match Red.enqueue q ~now:Time.zero (mk_ecn_packet pool) with
    | `Enqueued -> incr enqueued
    | `Dropped -> incr dropped);
    while Red.length q > 10 do
      let h = Red.dequeue q ~now:Time.zero in
      if Pool.ecn_ce pool h then saw_ce := true;
      Pool.free pool h
    done
  done;
  Alcotest.(check bool) "marks happened" true (Red.marks q > 0);
  Alcotest.(check bool) "CE bit visible on dequeued packets" true !saw_ce;
  Alcotest.(check int) "no early drops of capable packets" 0 !dropped

let red_drops_non_capable_despite_ecn_mode () =
  let pool = Pool.create () in
  let rng = Rng.create ~seed:8L in
  let q =
    Red.create ~rng ~pool { (red_params 1000) with Red.max_p = 1.; ecn_mark = true }
  in
  let dropped = ref 0 in
  for _ = 1 to 200 do
    (match Red.enqueue q ~now:Time.zero (mk_packet pool) with
    | `Dropped -> incr dropped
    | `Enqueued -> ());
    while Red.length q > 10 do
      Pool.free pool (Red.dequeue q ~now:Time.zero)
    done
  done;
  Alcotest.(check bool) "non-capable still dropped" true (!dropped > 0);
  Alcotest.(check int) "no marks" 0 (Red.marks q)

let red_adaptive_max_p_moves () =
  let pool = Pool.create () in
  let rng = Rng.create ~seed:9L in
  let q = Red.create ~rng ~pool { (red_params 1000) with Red.adaptive = true } in
  let initial = Red.current_max_p q in
  (* Sustained congestion above max_th: max_p scales up (one step per 0.5 s). *)
  let now = ref 0.0 in
  for _ = 1 to 100 do
    now := !now +. 0.1;
    ignore (Red.enqueue q ~now:(Time.of_sec !now) (mk_packet pool))
  done;
  Alcotest.(check bool) "scaled up under congestion" true
    (Red.current_max_p q > initial);
  (* Long quiet period with an empty queue: max_p scales back down. *)
  while Red.length q > 0 do
    Pool.free pool (Red.dequeue q ~now:(Time.of_sec !now))
  done;
  let high = Red.current_max_p q in
  for _ = 1 to 100 do
    now := !now +. 1.0;
    ignore (Red.enqueue q ~now:(Time.of_sec !now) (mk_packet pool));
    let h = Red.dequeue q ~now:(Time.of_sec !now) in
    if not (Pool.is_nil h) then Pool.free pool h
  done;
  Alcotest.(check bool) "scaled down when idle" true (Red.current_max_p q < high)

let red_validates_params () =
  let pool = Pool.create () in
  let rng = Rng.create ~seed:6L in
  Alcotest.check_raises "thresholds" (Invalid_argument "Red.create: bad thresholds")
    (fun () -> ignore (Red.create ~rng ~pool { (red_params 10) with Red.max_th = 1. }))

let red_virtual_queue_ewma_catch_up () =
  let pool = Pool.create () in
  let rng = Rng.create ~seed:7L in
  let q = Red.create ~rng ~pool (red_params 100) in
  ignore (Red.enqueue q ~now:Time.zero (mk_packet pool));
  ignore (Red.enqueue q ~now:Time.zero (mk_packet pool));
  let avg0 = Red.avg q in
  (* virtual_update is the closed form of [m] EWMA samples at the
     frozen combined depth — check it against that form exactly. *)
  Red.set_virtual_queue q 40.;
  Red.virtual_update q ~arrivals:25.;
  let w_q = (red_params 100).Red.w_q in
  let keep = (1. -. w_q) ** 25. in
  let expected = (avg0 *. keep) +. ((2. +. 40.) *. (1. -. keep)) in
  check_float "closed-form catch-up" expected (Red.avg q);
  (* Non-positive arrival counts are a no-op. *)
  Red.virtual_update q ~arrivals:0.;
  Red.virtual_update q ~arrivals:(-3.);
  check_float "no-op on zero arrivals" expected (Red.avg q);
  (* A negative virtual backlog clamps to zero: the next sample sees
     only the physical depth. *)
  Red.set_virtual_queue q (-5.);
  Red.virtual_update q ~arrivals:1.;
  let expected' = (expected *. (1. -. w_q)) +. (2. *. w_q) in
  check_float "clamped at zero" expected' (Red.avg q)

let queue_disc_optional_avg () =
  let pool = Pool.create () in
  let dt = Queue_disc.droptail ~capacity:10 in
  let sfq = Queue_disc.sfq ~pool ~capacity:10 in
  let cell = [| nan |] in
  let avg q =
    Queue_disc.avg_queue q cell;
    cell.(0)
  in
  (* Off by default: arrivals and the hybrid hooks leave the estimate
     at zero. *)
  List.iter
    (fun q -> ignore (Queue_disc.enqueue q ~now:Time.zero (mk_packet pool)))
    [ dt; sfq ];
  check_float "droptail off" 0. (avg dt);
  check_float "sfq off" 0. (avg sfq);
  Queue_disc.set_virtual_queue dt 10.;
  Queue_disc.virtual_update dt ~arrivals:5.;
  check_float "still off after hybrid hooks" 0. (avg dt);
  List.iter
    (fun q ->
      Queue_disc.enable_avg q ~w_q:0.5;
      (* Each arrival samples the pre-enqueue occupancy, RED-style: with
         one packet already queued the next two see 1 and 2. *)
      ignore (Queue_disc.enqueue q ~now:Time.zero (mk_packet pool));
      ignore (Queue_disc.enqueue q ~now:Time.zero (mk_packet pool));
      check_float "two samples" 1.25 (avg q))
    [ dt; sfq ];
  Alcotest.check_raises "bad w_q"
    (Invalid_argument "Droptail.enable_avg: bad w_q") (fun () ->
      Queue_disc.enable_avg (Queue_disc.droptail ~capacity:4) ~w_q:0.)

(* ------------------------------------------------------------------ *)
(* SFQ *)

let sfq_round_robin_service () =
  let pool = Pool.create () in
  let q = Sfq.create ~buckets:4 ~pool ~capacity:100 () in
  (* Find two flows in different buckets. *)
  let flow_a = 0 in
  let flow_b =
    let rec find fl =
      if Sfq.bucket_of_flow q fl <> Sfq.bucket_of_flow q flow_a then fl else find (fl + 1)
    in
    find 1
  in
  (* 3 packets of A then 3 of B: round-robin interleaves the service. *)
  List.iter (fun _ -> ignore (Sfq.enqueue ~now:0 q (mk_packet ~flow:flow_a pool))) [ 1; 2; 3 ];
  List.iter (fun _ -> ignore (Sfq.enqueue ~now:0 q (mk_packet ~flow:flow_b pool))) [ 1; 2; 3 ];
  let order = List.init 6 (fun _ -> Pool.flow pool (Sfq.dequeue q)) in
  let rec alternates = function
    | a :: b :: rest -> a <> b && alternates (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool)
    (Printf.sprintf "interleaved service %s"
       (String.concat "," (List.map string_of_int order)))
    true (alternates order)

let sfq_overflow_penalizes_longest () =
  let pool = Pool.create () in
  let q = Sfq.create ~buckets:4 ~pool ~capacity:4 () in
  let flow_a = 0 in
  let flow_b =
    let rec find fl =
      if Sfq.bucket_of_flow q fl <> Sfq.bucket_of_flow q flow_a then fl else find (fl + 1)
    in
    find 1
  in
  (* Fill the whole buffer with the hog A. *)
  List.iter (fun _ -> ignore (Sfq.enqueue ~now:0 q (mk_packet ~flow:flow_a pool))) [ 1; 2; 3; 4 ];
  (* B's arrival evicts one of A's packets rather than being dropped. *)
  (match Sfq.enqueue ~now:0 q (mk_packet ~flow:flow_b pool) with
  | `Enqueued_dropping victim ->
      Alcotest.(check int) "victim from hog" flow_a (Pool.flow pool victim)
  | `Enqueued | `Dropped -> Alcotest.fail "expected eviction");
  (* A's own arrival at a full buffer with A longest is refused. *)
  (match Sfq.enqueue ~now:0 q (mk_packet ~flow:flow_a pool) with
  | `Dropped -> ()
  | `Enqueued | `Enqueued_dropping _ -> Alcotest.fail "expected drop of the hog");
  Alcotest.(check int) "capacity held" 4 (Sfq.length q)

let sfq_single_flow_fifo () =
  let pool = Pool.create () in
  let q = Sfq.create ~pool ~capacity:10 () in
  List.iter (fun i -> ignore (Sfq.enqueue ~now:0 q (mk_packet ~seq:i pool))) [ 0; 1; 2 ];
  let seqs = List.init 3 (fun _ -> Pool.seq pool (Sfq.dequeue q)) in
  Alcotest.(check (list int)) "fifo within flow" [ 0; 1; 2 ] seqs;
  Alcotest.(check bool) "drained" true (Pool.is_nil (Sfq.dequeue q))

(* ------------------------------------------------------------------ *)
(* Link *)

let mk_link ?(capacity = 100) sched pool ~bandwidth ~delay ~deliver =
  Link.create sched ~name:"l" ~bandwidth ~delay
    ~queue:(Queue_disc.droptail ~capacity)
    ~pool ~deliver

let link_delivery_timing () =
  let sched = Scheduler.create () in
  let pool = Pool.create () in
  let delivered = ref [] in
  let link =
    mk_link sched pool ~bandwidth:(Units.mbps 1.) ~delay:(Time.of_ms 10.)
      ~deliver:(fun h ->
        delivered := Time.to_sec (Scheduler.now sched) :: !delivered;
        Pool.free pool h)
  in
  (* 1000 B at 1 Mbps = 8 ms serialize + 10 ms propagate = 18 ms. *)
  Link.send link (mk_packet ~size:1000 pool);
  Scheduler.run sched;
  (match !delivered with
  | [ at ] -> check_float "arrival time" 0.018 at
  | _ -> Alcotest.fail "expected exactly one delivery");
  Alcotest.(check int) "no leak" 0 (Pool.live pool)

let link_pipelining () =
  (* Two packets: serialization is sequential (8ms each), propagation
     overlaps: arrivals at 18 ms and 26 ms. *)
  let sched = Scheduler.create () in
  let pool = Pool.create () in
  let times = ref [] in
  let link =
    mk_link sched pool ~bandwidth:(Units.mbps 1.) ~delay:(Time.of_ms 10.)
      ~deliver:(fun h ->
        times := Time.to_sec (Scheduler.now sched) :: !times;
        Pool.free pool h)
  in
  Link.send link (mk_packet ~size:1000 pool);
  Link.send link (mk_packet ~size:1000 pool);
  Scheduler.run sched;
  Alcotest.(check (list (float 1e-9))) "pipelined" [ 0.018; 0.026 ] (List.rev !times)

let link_preserves_order () =
  let sched = Scheduler.create () in
  let pool = Pool.create () in
  let seqs = ref [] in
  let link =
    mk_link sched pool ~bandwidth:(Units.mbps 10.) ~delay:(Time.of_ms 1.)
      ~deliver:(fun h ->
        seqs := Pool.seq pool h :: !seqs;
        Pool.free pool h)
  in
  List.iter (fun i -> Link.send link (mk_packet ~seq:i pool)) [ 0; 1; 2; 3; 4 ];
  Scheduler.run sched;
  Alcotest.(check (list int)) "order" [ 0; 1; 2; 3; 4 ] (List.rev !seqs)

let link_drops_and_counters () =
  let sched = Scheduler.create () in
  let pool = Pool.create () in
  let link =
    mk_link ~capacity:2 sched pool ~bandwidth:(Units.kbps 1.) (* very slow *)
      ~delay:(Time.of_ms 1.)
      ~deliver:(Pool.free pool)
  in
  let drops = ref 0 in
  Link.on_drop link (fun _ _ -> incr drops);
  (* First starts transmitting immediately (leaves queue), next two queue,
     remaining two drop. *)
  List.iter (fun i -> Link.send link (mk_packet ~seq:i pool)) [ 0; 1; 2; 3; 4 ];
  Alcotest.(check int) "arrivals" 5 (Link.arrivals link);
  Alcotest.(check int) "drops" 2 (Link.drops link);
  Alcotest.(check int) "listener drops" 2 !drops;
  (* The link owns its drops: the two refused packets are already back in
     the pool while the other three are still queued or in flight. *)
  Alcotest.(check int) "dropped packets freed" 3 (Pool.live pool);
  Scheduler.run sched;
  Alcotest.(check int) "departures" 3 (Link.departures link);
  Alcotest.(check int) "bytes" 3000 (Link.bytes_delivered link);
  Alcotest.(check int) "all freed after run" 0 (Pool.live pool)

let link_listeners_fire () =
  let sched = Scheduler.create () in
  let pool = Pool.create () in
  let link =
    mk_link ~capacity:10 sched pool ~bandwidth:(Units.mbps 1.) ~delay:(Time.of_ms 1.)
      ~deliver:(Pool.free pool)
  in
  let arrivals = ref 0 and departs = ref 0 in
  Link.on_arrival link (fun _ _ -> incr arrivals);
  Link.on_depart link (fun _ _ -> incr departs);
  Link.send link (mk_packet pool);
  Scheduler.run sched;
  Alcotest.(check int) "arrival listener" 1 !arrivals;
  Alcotest.(check int) "depart listener" 1 !departs

let link_reclaim_drains_pool () =
  let sched = Scheduler.create () in
  let pool = Pool.create () in
  let link =
    mk_link ~capacity:10 sched pool ~bandwidth:(Units.kbps 8.) (* 1 s per 1000 B *)
      ~delay:(Time.of_ms 1.)
      ~deliver:(Pool.free pool)
  in
  List.iter (fun _ -> Link.send link (mk_packet pool)) [ 1; 2; 3; 4 ];
  (* Stop mid-transfer: one packet in flight, three queued. *)
  Scheduler.run ~until:(Time.of_sec 0.5) sched;
  Alcotest.(check bool) "packets outstanding" true (Pool.live pool > 0);
  Link.reclaim link;
  Alcotest.(check int) "reclaim drains" 0 (Pool.live pool)

(* ------------------------------------------------------------------ *)
(* Router *)

let router_routes_by_destination () =
  let sched = Scheduler.create () in
  let pool = Pool.create () in
  let to_a = ref 0 and to_b = ref 0 in
  let mk deliver =
    mk_link ~capacity:10 sched pool ~bandwidth:(Units.mbps 10.) ~delay:(Time.of_ms 1.)
      ~deliver
  in
  let la =
    mk (fun h ->
        incr to_a;
        Pool.free pool h)
  in
  let lb =
    mk (fun h ->
        incr to_b;
        Pool.free pool h)
  in
  let r = Router.create ~name:"gw" ~pool () in
  Router.add_route r ~dst:1 la;
  Router.set_default r lb;
  Router.receive r (mk_packet ~dst:1 pool);
  Router.receive r (mk_packet ~dst:9 pool);
  Router.receive r (mk_packet ~dst:1 pool);
  Scheduler.run sched;
  Alcotest.(check int) "to a" 2 !to_a;
  Alcotest.(check int) "to b (default)" 1 !to_b;
  Alcotest.(check int) "forwarded" 3 (Router.forwarded r)

let router_no_route_fails () =
  let pool = Pool.create () in
  let r = Router.create ~name:"gw" ~pool () in
  Alcotest.check_raises "no route" (Failure "Router gw: no route for destination 5")
    (fun () -> Router.receive r (mk_packet ~dst:5 pool))

let router_duplicate_route_rejected () =
  let sched = Scheduler.create () in
  let pool = Pool.create () in
  let l =
    mk_link ~capacity:1 sched pool ~bandwidth:(Units.mbps 1.) ~delay:(Time.of_ms 1.)
      ~deliver:(Pool.free pool)
  in
  let r = Router.create ~name:"gw" ~pool () in
  Router.add_route r ~dst:1 l;
  Alcotest.check_raises "dup"
    (Invalid_argument "Router.add_route(gw): duplicate route for 1") (fun () ->
      Router.add_route r ~dst:1 l)

(* Routes live in an array indexed by destination, grown on demand.
   Added sparse and out of order, a routed destination still reaches
   its link, a hole in the array and a destination past its end both
   fall back to the default route, and duplicate, missing and negative
   routes fail with the same messages as before. *)
let router_dense_routes () =
  let sched = Scheduler.create () in
  let pool = Pool.create () in
  let counts = Array.make 3 0 in
  let mk i =
    mk_link ~capacity:10 sched pool ~bandwidth:(Units.mbps 10.) ~delay:(Time.of_ms 1.)
      ~deliver:(fun h ->
        counts.(i) <- counts.(i) + 1;
        Pool.free pool h)
  in
  let l40 = mk 0 and l3 = mk 1 and ldef = mk 2 in
  let r = Router.create ~name:"gw" ~pool () in
  Router.add_route r ~dst:40 l40;
  Router.add_route r ~dst:3 l3;
  Alcotest.check_raises "duplicate after growth"
    (Invalid_argument "Router.add_route(gw): duplicate route for 40") (fun () ->
      Router.add_route r ~dst:40 l3);
  Alcotest.check_raises "negative destination"
    (Invalid_argument "Router.add_route(gw): negative destination -1") (fun () ->
      Router.add_route r ~dst:(-1) l3);
  Alcotest.check_raises "hole without default"
    (Failure "Router gw: no route for destination 7") (fun () ->
      Router.receive r (mk_packet ~dst:7 pool));
  Alcotest.check_raises "past the end without default"
    (Failure "Router gw: no route for destination 1000") (fun () ->
      Router.receive r (mk_packet ~dst:1000 pool));
  Router.set_default r ldef;
  List.iter (fun dst -> Router.receive r (mk_packet ~dst pool)) [ 40; 3; 7; 1000; 3 ];
  Scheduler.run sched;
  Alcotest.(check (array int)) "40, 3, default" [| 1; 2; 2 |] counts;
  Alcotest.(check int) "forwarded" 7 (Router.forwarded r)

(* ------------------------------------------------------------------ *)
(* Monitor *)

let monitor_arrival_binner_counts_data_only () =
  let sched = Scheduler.create () in
  let pool = Pool.create () in
  let link =
    mk_link sched pool ~bandwidth:(Units.mbps 10.) ~delay:(Time.of_ms 1.)
      ~deliver:(Pool.free pool)
  in
  let binned = Monitor.arrival_binner pool link ~origin:0. ~width:1. in
  Link.send link (mk_packet pool);
  Link.send link
    (Pool.alloc_ack pool ~flow:0 ~src:0 ~dst:1 ~size_bytes:40 ~sent_at:Time.zero
       ~ack:0 ~ece:false ~sack:[] ());
  Scheduler.run sched;
  Alcotest.(check int) "counts only data" 1 (Netstats.Binned.total binned)

(* The oscillation sampler fires every 20 ms of every probed run. Its
   timer costs what any 20 ms timer costs the engine; the sample itself
   (warm-up test, average-queue read, detector update) must add no minor
   words to that. *)
let monitor_osc_sampler_allocates_nothing () =
  let every = Time.of_ms 20. and until = Time.of_sec 100. in
  let words_over_60s sched =
    Scheduler.run ~until:(Time.of_sec 2.) sched;
    let before = Gc.minor_words () in
    Scheduler.run ~until:(Time.of_sec 62.) sched;
    Gc.minor_words () -. before
  in
  let bare =
    let sched = Scheduler.create () in
    let rec tick () =
      if Time.(Scheduler.now sched <= until) then
        ignore (Scheduler.after sched every tick)
    in
    ignore (Scheduler.after sched Time.zero tick);
    words_over_60s sched
  in
  let sched = Scheduler.create () in
  let q = Queue_disc.droptail ~capacity:10 in
  Queue_disc.enable_avg q ~w_q:0.5;
  let osc = Telemetry.Burst.Osc.create () in
  Monitor.osc_sampler sched osc ~signal:(Queue_disc.avg_queue q) ~every
    ~from:1. ~until;
  let sampled = words_over_60s sched in
  Alcotest.(check int) "samples" 3051 (Telemetry.Burst.Osc.samples osc);
  Alcotest.(check (float 0.)) "words beyond a bare 20 ms timer" 0.
    (sampled -. bare)

let monitor_drop_runs () =
  let sched = Scheduler.create () in
  let pool = Pool.create () in
  let link =
    mk_link ~capacity:2 sched pool ~bandwidth:(Units.kbps 1.) (* glacial *)
      ~delay:(Time.of_ms 1.)
      ~deliver:(Pool.free pool)
  in
  let runs = Monitor.drop_run_recorder link in
  (* 1 transmits, 2 queue, then: drop drop, accept (after dequeue), drop. *)
  List.iter (fun i -> Link.send link (mk_packet ~seq:i pool)) [ 0; 1; 2 ];
  Link.send link (mk_packet ~seq:3 pool);
  Link.send link (mk_packet ~seq:4 pool);
  (* free one slot, then one acceptance breaks the run, then another drop *)
  Scheduler.run ~until:(Time.of_sec 9.) sched;
  Link.send link (mk_packet ~seq:5 pool);
  Link.send link (mk_packet ~seq:6 pool);
  Alcotest.(check (list int)) "runs" [ 2; 1 ] (runs ())

let monitor_queue_sampler () =
  let sched = Scheduler.create () in
  let pool = Pool.create () in
  let link =
    mk_link sched pool ~bandwidth:(Units.kbps 8.) (* 1 s per 1000 B *)
      ~delay:(Time.of_ms 1.)
      ~deliver:(Pool.free pool)
  in
  let series =
    Monitor.queue_sampler sched link ~every:(Time.of_sec 0.25) ~until:(Time.of_sec 2.)
  in
  (* Three packets: one transmitting, two queued initially. *)
  List.iter (fun _ -> Link.send link (mk_packet ~size:1000 pool)) [ 1; 2; 3 ];
  Scheduler.run sched;
  let values = Netstats.Series.values series in
  Alcotest.(check bool) "saw queue of 2" true (Array.exists (fun v -> v = 2.) values);
  Alcotest.(check bool) "saw empty queue" true (Array.exists (fun v -> v = 0.) values)

let link_record_decodes_lifecycle () =
  let sched = Scheduler.create () in
  let pool = Pool.create () in
  let link =
    mk_link ~capacity:1 sched pool ~bandwidth:(Units.kbps 8.) (* 1 s per 1000 B *)
      ~delay:(Time.of_ms 1.)
      ~deliver:(Pool.free pool)
  in
  let recorder = Telemetry.Recorder.create Telemetry.Recorder.default_config in
  Link.record link recorder;
  (* First transmits, second queues, third drops. *)
  List.iter (fun i -> Link.send link (mk_packet ~flow:i ~seq:i pool)) [ 0; 1; 2 ];
  Scheduler.run sched;
  let events = ref [] in
  Telemetry.Recorder.iter_events recorder (fun e ->
      match e with
      | Telemetry.Event_bus.Packet p -> events := (p.kind, p.flow, p.seq, p.link) :: !events
      | _ -> Alcotest.fail "only packet events expected");
  let count kind = List.length (List.filter (fun (k, _, _, _) -> k = kind) !events) in
  Alcotest.(check int) "3 arrivals" 3 (count Telemetry.Event_bus.Arrival);
  Alcotest.(check int) "1 drop" 1 (count Telemetry.Event_bus.Drop);
  Alcotest.(check int) "2 departures" 2 (count Telemetry.Event_bus.Depart);
  Alcotest.(check bool) "flow 2 dropped, with its seq" true
    (List.mem (Telemetry.Event_bus.Drop, 2, Some 2, "l") !events);
  Alcotest.(check bool) "flow 0 departed, with its seq" true
    (List.mem (Telemetry.Event_bus.Depart, 0, Some 0, "l") !events);
  Alcotest.(check bool) "every event names the link" true
    (List.for_all (fun (_, _, _, link) -> String.equal link "l") !events)

let link_queue_high_water_mark () =
  let sched = Scheduler.create () in
  let pool = Pool.create () in
  let link =
    mk_link sched pool ~bandwidth:(Units.kbps 8.) (* 1 s per 1000 B *)
      ~delay:(Time.of_ms 1.)
      ~deliver:(Pool.free pool)
  in
  (* One transmits immediately; the other three peak the queue at 3. *)
  List.iter (fun _ -> Link.send link (mk_packet pool)) [ 1; 2; 3; 4 ];
  Scheduler.run sched;
  Alcotest.(check int) "drained" 0 (Link.queue_length link);
  Alcotest.(check int) "peak was 3" 3 (Link.queue_high_water_mark link)

(* ------------------------------------------------------------------ *)
(* Properties *)

let sfq_conservation_property =
  QCheck.Test.make ~name:"sfq conserves packets" ~count:100
    QCheck.(pair (int_bound 50) (small_list (pair (int_bound 7) bool)))
    (fun (cap, ops) ->
      QCheck.assume (cap >= 1);
      let pool = Pool.create () in
      let q = Sfq.create ~buckets:4 ~pool ~capacity:cap () in
      let enqueued = ref 0 and evicted = ref 0 and dequeued = ref 0 in
      List.iter
        (fun (flow, push) ->
          if push then
            match Sfq.enqueue ~now:0 q (mk_packet ~flow pool) with
            | `Enqueued -> incr enqueued
            | `Dropped -> ()
            | `Enqueued_dropping _ ->
                incr enqueued;
                incr evicted
          else begin
            let h = Sfq.dequeue q in
            if not (Pool.is_nil h) then begin
              Pool.free pool h;
              incr dequeued
            end
          end)
        ops;
      Sfq.length q = !enqueued - !evicted - !dequeued && Sfq.length q <= cap)

(* The int ring against Stdlib.Queue: random pushes and pops, two
   pushes to a pop on average, so the ring doubles past 8, 16, 32, ...
   while its head has wrapped round. Every pop, length and emptiness
   must agree, and popping an empty ring raises. *)
let ring_matches_queue_property =
  QCheck2.Test.make ~name:"int ring pops like Stdlib.Queue" ~count:200
    ~print:QCheck2.Print.(list (pair bool int))
    QCheck2.Gen.(
      list_size (int_range 0 400) (pair (frequencyl [ (2, true); (1, false) ]) int))
    (fun ops ->
      let r = Ring.create () and m = Queue.create () in
      List.for_all
        (fun (push, x) ->
          if push then begin
            Ring.push r x;
            Queue.push x m
          end
          else if Queue.is_empty m then
            Alcotest.check_raises "empty pop" (Invalid_argument "Ring.pop_exn: empty")
              (fun () -> ignore (Ring.pop_exn r))
          else if Ring.pop_exn r <> Queue.pop m then Alcotest.fail "popped out of order";
          Ring.length r = Queue.length m && Ring.is_empty r = Queue.is_empty m)
        ops)

let red_capacity_property =
  QCheck.Test.make ~name:"red never exceeds capacity" ~count:100
    QCheck.(pair (int_range 1 20) (small_list bool))
    (fun (cap, ops) ->
      let pool = Pool.create () in
      let rng = Rng.create ~seed:77L in
      let q = Red.create ~rng ~pool (red_params cap) in
      List.for_all
        (fun push ->
          if push then begin
            ignore (Red.enqueue q ~now:Time.zero (mk_packet pool));
            Red.length q <= cap
          end
          else begin
            let h = Red.dequeue q ~now:Time.zero in
            if not (Pool.is_nil h) then Pool.free pool h;
            true
          end)
        ops)

let pool_handle_roundtrip_property =
  QCheck.Test.make ~name:"pool free/realloc never aliases" ~count:200
    QCheck.(small_list bool)
    (fun ops ->
      let pool = Pool.create ~capacity:2 () in
      let live = ref [] in
      let next_seq = ref 0 in
      List.iter
        (fun push ->
          if push then begin
            incr next_seq;
            live := (mk_packet ~seq:!next_seq pool, !next_seq) :: !live
          end
          else
            match !live with
            | [] -> ()
            | (h, _) :: rest ->
                Pool.free pool h;
                live := rest)
        ops;
      (* Every surviving handle still reads its own packet's fields. *)
      List.for_all (fun (h, seq) -> Pool.seq pool h = seq) !live
      && Pool.live pool = List.length !live)

(* ------------------------------------------------------------------ *)
(* Flow_table *)

module Flow_table = Netsim.Flow_table

let ft_stale = Invalid_argument "Flow_table: stale or freed flow handle"

let flow_table_basic_rows () =
  let t = Flow_table.create ~capacity:4 ~ints_per_flow:3 ~floats_per_flow:2 () in
  let a = Flow_table.alloc t in
  let b = Flow_table.alloc t in
  Flow_table.set_int t a 0 11;
  Flow_table.set_int t b 0 22;
  Flow_table.set_float t a 1 0.5;
  Alcotest.(check int) "row a" 11 (Flow_table.get_int t a 0);
  Alcotest.(check int) "row b" 22 (Flow_table.get_int t b 0);
  Alcotest.(check (float 0.)) "float row" 0.5 (Flow_table.get_float t a 1);
  Alcotest.(check int) "live" 2 (Flow_table.live t);
  let slots = ref [] in
  Flow_table.iter_live t (fun s -> slots := s :: !slots);
  Alcotest.(check int) "iter_live visits both" 2 (List.length !slots);
  Flow_table.free t a;
  Flow_table.free t b;
  Alcotest.(check int) "drained" 0 (Flow_table.live t)

let flow_table_stale_handle_raises () =
  let t = Flow_table.create ~ints_per_flow:2 ~floats_per_flow:0 () in
  let h = Flow_table.alloc t in
  Flow_table.free t h;
  Alcotest.check_raises "read after free" ft_stale (fun () ->
      ignore (Flow_table.get_int t h 0));
  Alcotest.check_raises "double free" ft_stale (fun () -> Flow_table.free t h);
  Alcotest.check_raises "nil never live" ft_stale (fun () ->
      ignore (Flow_table.slot_of t Flow_table.nil));
  Alcotest.(check bool) "is_live is false, not raising" false
    (Flow_table.is_live t h)

let flow_table_recycled_slot_does_not_alias () =
  let t = Flow_table.create ~capacity:1 ~ints_per_flow:1 ~floats_per_flow:0 () in
  let old = Flow_table.alloc t in
  Flow_table.set_int t old 0 7;
  Flow_table.free t old;
  let fresh = Flow_table.alloc t in
  (* Same slot, new generation: the old handle must not reach it, and
     the row must come back zeroed. *)
  Alcotest.(check int) "same slot reused" (Flow_table.slot_of t fresh) 0;
  Alcotest.(check int) "row zeroed on alloc" 0 (Flow_table.get_int t fresh 0);
  Alcotest.check_raises "old handle cannot touch it" ft_stale (fun () ->
      Flow_table.set_int t old 0 99);
  Alcotest.(check int) "fresh row untouched" 0 (Flow_table.get_int t fresh 0)

let flow_table_growth_and_accounting () =
  let t = Flow_table.create ~capacity:2 ~ints_per_flow:4 ~floats_per_flow:3 () in
  Alcotest.(check int) "words = ints + floats + 2" 9 (Flow_table.words_per_flow t);
  Alcotest.(check int) "bytes = 8 * words" 72 (Flow_table.bytes_per_flow t);
  Alcotest.(check int) "no growth yet" 0 (Flow_table.growth_count t);
  let hs = List.init 5 (fun _ -> Flow_table.alloc t) in
  Alcotest.(check bool) "grew past capacity 2" true (Flow_table.growth_count t >= 1);
  Alcotest.(check int) "high-water mark" 5 (Flow_table.high_water_mark t);
  Alcotest.(check int) "footprint covers capacity"
    (Flow_table.capacity t * Flow_table.bytes_per_flow t)
    (Flow_table.footprint_bytes t);
  List.iter (Flow_table.free t) hs;
  Alcotest.(check int) "hwm survives drain" 5 (Flow_table.high_water_mark t);
  (* Pre-sized at the flow count, the same load never grows. *)
  let t2 = Flow_table.create ~capacity:5 ~ints_per_flow:4 ~floats_per_flow:3 () in
  let hs2 = List.init 5 (fun _ -> Flow_table.alloc t2) in
  List.iter (Flow_table.free t2) hs2;
  Alcotest.(check int) "pre-size holds" 0 (Flow_table.growth_count t2)

let flow_table_keyed_roundtrip () =
  let t = Flow_table.create ~ints_per_flow:1 ~floats_per_flow:0 () in
  let h = Flow_table.alloc t in
  let s = Flow_table.slot_of t h in
  Alcotest.(check bool) "slot rederives its handle" true
    (Flow_table.handle_of_slot t s = h);
  Flow_table.free t h;
  Alcotest.check_raises "free slot has no handle"
    (Invalid_argument "Flow_table.handle_of_slot: free slot") (fun () ->
      ignore (Flow_table.handle_of_slot t s))

let suite =
  [
    ( "net.units",
      [
        Alcotest.test_case "transmission time" `Quick units_transmission_time;
        Alcotest.test_case "invalid bandwidth" `Quick units_invalid;
      ] );
    ( "net.pool",
      [
        Alcotest.test_case "unique uids" `Quick pool_uids_unique;
        Alcotest.test_case "classifiers" `Quick pool_classifiers;
        Alcotest.test_case "stale handle raises" `Quick pool_stale_handle_raises;
        Alcotest.test_case "recycled slot does not alias" `Quick
          pool_recycled_slot_does_not_alias;
        Alcotest.test_case "live accounting" `Quick pool_accounting;
        Alcotest.test_case "sack side table" `Quick pool_sack_side_table;
      ] );
    ( "net.flow_table",
      [
        Alcotest.test_case "rows are independent" `Quick flow_table_basic_rows;
        Alcotest.test_case "stale handle raises" `Quick flow_table_stale_handle_raises;
        Alcotest.test_case "recycled slot does not alias" `Quick
          flow_table_recycled_slot_does_not_alias;
        Alcotest.test_case "growth and accounting" `Quick flow_table_growth_and_accounting;
        Alcotest.test_case "slot/handle roundtrip" `Quick flow_table_keyed_roundtrip;
      ] );
    ( "net.droptail",
      [
        Alcotest.test_case "capacity" `Quick droptail_capacity;
        Alcotest.test_case "high-water mark" `Quick droptail_high_water_mark;
        Alcotest.test_case "fifo order" `Quick droptail_fifo_order;
      ] );
    ( "net.red",
      [
        Alcotest.test_case "no drops below min_th" `Quick red_no_drops_below_min_th;
        Alcotest.test_case "forced drops above max_th" `Quick red_always_drops_above_max_th;
        Alcotest.test_case "physical capacity" `Quick red_physical_capacity;
        Alcotest.test_case "probabilistic early drop" `Quick red_early_drop_probabilistic;
        Alcotest.test_case "average decays when idle" `Quick red_average_decays_when_idle;
        Alcotest.test_case "ecn marks instead of dropping" `Quick red_marks_instead_of_dropping;
        Alcotest.test_case "non-capable packets still drop" `Quick
          red_drops_non_capable_despite_ecn_mode;
        Alcotest.test_case "adaptive max_p tracks load" `Quick red_adaptive_max_p_moves;
        Alcotest.test_case "validates parameters" `Quick red_validates_params;
        Alcotest.test_case "virtual queue EWMA catch-up" `Quick
          red_virtual_queue_ewma_catch_up;
        Alcotest.test_case "optional droptail/sfq average" `Quick
          queue_disc_optional_avg;
      ] );
    ( "net.sfq",
      [
        Alcotest.test_case "round-robin service" `Quick sfq_round_robin_service;
        Alcotest.test_case "overflow penalizes longest" `Quick sfq_overflow_penalizes_longest;
        Alcotest.test_case "single flow is fifo" `Quick sfq_single_flow_fifo;
      ] );
    ( "net.link",
      [
        Alcotest.test_case "serialization + propagation" `Quick link_delivery_timing;
        Alcotest.test_case "pipelining" `Quick link_pipelining;
        Alcotest.test_case "order preservation" `Quick link_preserves_order;
        Alcotest.test_case "drops and counters" `Quick link_drops_and_counters;
        Alcotest.test_case "listeners" `Quick link_listeners_fire;
        Alcotest.test_case "queue high-water mark" `Quick link_queue_high_water_mark;
        Alcotest.test_case "reclaim drains pool" `Quick link_reclaim_drains_pool;
        Alcotest.test_case "record decodes lifecycle" `Quick
          link_record_decodes_lifecycle;
      ] );
    ( "net.router",
      [
        Alcotest.test_case "routes by destination" `Quick router_routes_by_destination;
        Alcotest.test_case "missing route fails" `Quick router_no_route_fails;
        Alcotest.test_case "duplicate route rejected" `Quick router_duplicate_route_rejected;
        Alcotest.test_case "dense routes and default" `Quick router_dense_routes;
      ] );
    ( "net.properties",
      [
        QCheck_alcotest.to_alcotest sfq_conservation_property;
        QCheck_alcotest.to_alcotest red_capacity_property;
        QCheck_alcotest.to_alcotest pool_handle_roundtrip_property;
        QCheck_alcotest.to_alcotest ring_matches_queue_property;
      ] );
    ( "net.monitor",
      [
        Alcotest.test_case "arrival binner counts data" `Quick
          monitor_arrival_binner_counts_data_only;
        Alcotest.test_case "queue sampler" `Quick monitor_queue_sampler;
        Alcotest.test_case "osc sampler allocates nothing" `Quick
          monitor_osc_sampler_allocates_nothing;
        Alcotest.test_case "drop runs" `Quick monitor_drop_runs;
      ] );
  ]
