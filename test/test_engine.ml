(* Tests for the discrete-event engine: Time, Event_queue, Scheduler,
   Rng. *)

open Sim_engine

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Time *)

let time_roundtrip () =
  check_float "sec roundtrip" 1.25 (Time.to_sec (Time.of_sec 1.25));
  check_float "ms" 0.002 (Time.to_sec (Time.of_ms 2.));
  check_float "us" 3e-6 (Time.to_sec (Time.of_us 3.))

let time_arithmetic () =
  let a = Time.of_sec 2. and b = Time.of_sec 0.5 in
  check_float "add" 2.5 (Time.to_sec (Time.add a b));
  check_float "diff" 1.5 (Time.to_sec (Time.diff a b));
  check_float "mul" 1.0 (Time.to_sec (Time.mul b 2.));
  Alcotest.(check bool) "lt" true Time.(b < a);
  Alcotest.(check bool) "ge" true Time.(a >= a);
  check_float "min" 0.5 (Time.to_sec (Time.min a b));
  check_float "max" 2.0 (Time.to_sec (Time.max a b))

let time_invalid () =
  Alcotest.check_raises "negative" (Invalid_argument "Time.of_sec: negative or non-finite")
    (fun () -> ignore (Time.of_sec (-1.)));
  Alcotest.check_raises "nan" (Invalid_argument "Time.of_sec: negative or non-finite")
    (fun () -> ignore (Time.of_sec Float.nan));
  Alcotest.check_raises "diff negative" (Invalid_argument "Time.diff: negative result")
    (fun () -> ignore (Time.diff (Time.of_sec 1.) (Time.of_sec 2.)))

(* ------------------------------------------------------------------ *)
(* Event_queue *)

let eq_fires_in_time_order () =
  let q = Event_queue.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Event_queue.schedule q (Time.of_sec 3.) (note "c"));
  ignore (Event_queue.schedule q (Time.of_sec 1.) (note "a"));
  ignore (Event_queue.schedule q (Time.of_sec 2.) (note "b"));
  let rec drain () =
    match Event_queue.pop q with
    | Some (_, action) ->
        action ();
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log)

let eq_fifo_within_timestamp () =
  let q = Event_queue.create () in
  let log = ref [] in
  let t = Time.of_sec 1. in
  List.iter
    (fun i -> ignore (Event_queue.schedule q t (fun () -> log := i :: !log)))
    [ 1; 2; 3; 4 ];
  let rec drain () =
    match Event_queue.pop q with
    | Some (_, action) ->
        action ();
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4 ] (List.rev !log)

let eq_cancel () =
  let q = Event_queue.create () in
  let fired = ref false in
  let h = Event_queue.schedule q (Time.of_sec 1.) (fun () -> fired := true) in
  Alcotest.(check bool) "pending" true (Event_queue.is_pending q h);
  Event_queue.cancel q h;
  Alcotest.(check bool) "not pending" false (Event_queue.is_pending q h);
  Alcotest.(check int) "live count" 0 (Event_queue.length q);
  Alcotest.(check bool) "empty pop" true (Event_queue.pop q = None);
  Alcotest.(check bool) "never fired" false !fired;
  (* double cancel is a no-op *)
  Event_queue.cancel q h;
  Alcotest.(check int) "still 0" 0 (Event_queue.length q)

let eq_high_water_mark () =
  let q = Event_queue.create () in
  Alcotest.(check int) "starts at 0" 0 (Event_queue.high_water_mark q);
  ignore (Event_queue.schedule q (Time.of_sec 1.) ignore);
  let h2 = Event_queue.schedule q (Time.of_sec 2.) ignore in
  ignore (Event_queue.schedule q (Time.of_sec 3.) ignore);
  Alcotest.(check int) "tracks peak" 3 (Event_queue.high_water_mark q);
  (* Pop the t=1 event and cancel the t=2 one: live drops to 1. *)
  ignore (Event_queue.pop q);
  Event_queue.cancel q h2;
  Alcotest.(check int) "peak survives drain" 3 (Event_queue.high_water_mark q);
  (* Refilling below the old peak leaves it; exceeding it moves it. *)
  ignore (Event_queue.schedule q (Time.of_sec 4.) ignore);
  ignore (Event_queue.schedule q (Time.of_sec 5.) ignore);
  Alcotest.(check int) "below peak: unchanged" 3 (Event_queue.high_water_mark q);
  ignore (Event_queue.schedule q (Time.of_sec 6.) ignore);
  Alcotest.(check int) "new peak" 4 (Event_queue.high_water_mark q)

let eq_next_time_skips_cancelled () =
  let q = Event_queue.create () in
  let h1 = Event_queue.schedule q (Time.of_sec 1.) ignore in
  ignore (Event_queue.schedule q (Time.of_sec 2.) ignore);
  Event_queue.cancel q h1;
  match Event_queue.next_time q with
  | Some t -> check_float "next is 2" 2. (Time.to_sec t)
  | None -> Alcotest.fail "expected an event"

(* ------------------------------------------------------------------ *)
(* Scheduler *)

let sched_runs_and_advances_clock () =
  let s = Scheduler.create () in
  let seen = ref [] in
  ignore (Scheduler.at s (Time.of_sec 1.) (fun () -> seen := Time.to_sec (Scheduler.now s) :: !seen));
  ignore (Scheduler.after s (Time.of_sec 0.5) (fun () -> seen := Time.to_sec (Scheduler.now s) :: !seen));
  Scheduler.run s;
  Alcotest.(check (list (float 1e-9))) "clock at fire times" [ 0.5; 1. ] (List.rev !seen);
  Alcotest.(check int) "fired" 2 (Scheduler.events_processed s)

let sched_until_bounds_and_advances () =
  let s = Scheduler.create () in
  let fired = ref 0 in
  ignore (Scheduler.at s (Time.of_sec 1.) (fun () -> incr fired));
  ignore (Scheduler.at s (Time.of_sec 5.) (fun () -> incr fired));
  Scheduler.run ~until:(Time.of_sec 2.) s;
  Alcotest.(check int) "only first fired" 1 !fired;
  check_float "clock at horizon" 2. (Time.to_sec (Scheduler.now s));
  Alcotest.(check int) "one pending" 1 (Scheduler.pending s);
  Scheduler.run s;
  Alcotest.(check int) "rest fired" 2 !fired

let sched_nested_scheduling () =
  let s = Scheduler.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    if !count < 5 then ignore (Scheduler.after s (Time.of_sec 1.) tick)
  in
  ignore (Scheduler.after s (Time.of_sec 1.) tick);
  Scheduler.run s;
  Alcotest.(check int) "chain of 5" 5 !count;
  check_float "final clock" 5. (Time.to_sec (Scheduler.now s))

let sched_stop () =
  let s = Scheduler.create () in
  let count = ref 0 in
  ignore (Scheduler.at s (Time.of_sec 1.) (fun () -> incr count; Scheduler.stop s));
  ignore (Scheduler.at s (Time.of_sec 2.) (fun () -> incr count));
  Scheduler.run s;
  Alcotest.(check int) "stopped after first" 1 !count

let sched_queue_high_water_mark () =
  let s = Scheduler.create () in
  (* Each tick keeps one successor pending, so the peak is the initial 3. *)
  List.iter
    (fun t -> ignore (Scheduler.at s (Time.of_sec t) ignore))
    [ 1.; 2.; 3. ];
  Scheduler.run s;
  Alcotest.(check int) "peak pending" 3 (Scheduler.queue_high_water_mark s)

let sched_rejects_past () =
  let s = Scheduler.create () in
  ignore (Scheduler.at s (Time.of_sec 1.) ignore);
  Scheduler.run s;
  Alcotest.check_raises "past" (Invalid_argument "Scheduler.at: time in the past")
    (fun () -> ignore (Scheduler.at s (Time.of_sec 0.5) ignore))

(* ------------------------------------------------------------------ *)
(* Rng *)

let rng_deterministic () =
  let a = Rng.create ~seed:42L and b = Rng.create ~seed:42L in
  for _ = 1 to 100 do
    Alcotest.(check bool) "same stream" true (Rng.bits64 a = Rng.bits64 b)
  done

let rng_different_seeds () =
  let a = Rng.create ~seed:1L and b = Rng.create ~seed:2L in
  Alcotest.(check bool) "different" false (Rng.bits64 a = Rng.bits64 b)

let rng_split_independent () =
  let parent = Rng.create ~seed:7L in
  let c1 = Rng.split parent in
  let c2 = Rng.split parent in
  Alcotest.(check bool) "children differ" false (Rng.bits64 c1 = Rng.bits64 c2)

let rng_split_named_stable () =
  let mk () = Rng.create ~seed:7L in
  let a = Rng.split_named (mk ()) "alpha" in
  let b = Rng.split_named (mk ()) "alpha" in
  let c = Rng.split_named (mk ()) "beta" in
  Alcotest.(check bool) "same label same stream" true (Rng.bits64 a = Rng.bits64 b);
  Alcotest.(check bool) "distinct labels differ" false (Rng.bits64 a = Rng.bits64 c)

let mean_of n f =
  let s = ref 0. in
  for _ = 1 to n do
    s := !s +. f ()
  done;
  !s /. float_of_int n

let rng_float_uniform_mean () =
  let r = Rng.create ~seed:11L in
  let m = mean_of 100_000 (fun () -> Rng.float r) in
  Alcotest.(check (float 0.01)) "mean ~ 0.5" 0.5 m

let rng_float_range () =
  let r = Rng.create ~seed:12L in
  for _ = 1 to 1000 do
    let v = Rng.float_range r 2. 5. in
    Alcotest.(check bool) "in range" true (v >= 2. && v < 5.)
  done

let rng_exponential_mean () =
  let r = Rng.create ~seed:13L in
  let m = mean_of 100_000 (fun () -> Rng.exponential r ~mean:0.1) in
  Alcotest.(check (float 0.003)) "mean ~ 0.1" 0.1 m

let rng_pareto_properties () =
  let r = Rng.create ~seed:14L in
  (* shape 2.5, scale 1: mean = shape*scale/(shape-1) = 5/3 *)
  let m = mean_of 200_000 (fun () -> Rng.pareto r ~shape:2.5 ~scale:1.) in
  Alcotest.(check (float 0.05)) "pareto mean" (5. /. 3.) m;
  for _ = 1 to 1000 do
    Alcotest.(check bool) "above scale" true (Rng.pareto r ~shape:1.5 ~scale:2. >= 2.)
  done

let rng_gaussian_moments () =
  let r = Rng.create ~seed:15L in
  let w = Netstats.Welford.create () in
  for _ = 1 to 100_000 do
    Netstats.Welford.add w (Rng.gaussian r ~mean:3. ~std:2.)
  done;
  Alcotest.(check (float 0.05)) "mean" 3. (Netstats.Welford.mean w);
  Alcotest.(check (float 0.1)) "std" 2. (Netstats.Welford.std w)

let rng_int_bounds () =
  let r = Rng.create ~seed:16L in
  for _ = 1 to 1000 do
    let v = Rng.int r 7 in
    Alcotest.(check bool) "0..6" true (v >= 0 && v < 7)
  done

let rng_bool_probability () =
  let r = Rng.create ~seed:17L in
  let hits = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Rng.bool r 0.3 then incr hits
  done;
  Alcotest.(check (float 0.01)) "p ~ 0.3" 0.3 (float_of_int !hits /. float_of_int n)

(* Golden output vectors for the SplitMix stream: any change to the
   generator silently shifts every simulation's numbers, so the stream
   itself is pinned. If a generator change is intentional, regenerate by
   printing the first 16 draws for seed 42 and update these arrays (and
   say so in the changelog). *)

let golden_bits_42 =
  [|
    -1311375923707205002;
    3667969706196665743;
    -3540667958578944569;
    4530500562463130564;
    -2297492247042161043;
    2350990548547690821;
    652804711573139060;
    -1670085140222423005;
    -1600467178174335100;
    590601169448674018;
    4160580083079786344;
    614756434117067265;
    3499318217791169216;
    2937664714141215905;
    -4113194501045098669;
    1227044151658300395;
  |]

let golden_float_42 =
  [|
    0.85782033745714625;
    0.3976820724069442;
    0.61612001072588918;
    0.49119785522693249;
    0.75090539144882851;
    0.25489490602282938;
    0.070777228649636981;
    0.81892900627350906;
    0.826477000843164;
    0.06403310709887311;
    0.45109099648750239;
    0.066652026141916565;
    0.37939684139472885;
    0.31850224651059145;
    0.55404655861114727;
    0.1330363934963561;
  |]

let golden_exponential_42 =
  [|
    1.9506637919337944;
    0.50696985415369411;
    0.9574253031734451;
    0.67569605160923762;
    1.3899225006609106;
    0.29423000481024497;
    0.073406771982411578;
    1.7088660940854994;
    1.7514451283987575;
    0.06617517396223703;
    0.59982260073243876;
    0.068977185333461838;
    0.4770634373815969;
    0.38346232427151333;
    0.80754072391605991;
    0.14275827943367198;
  |]

let rng_golden_bits () =
  let r = Rng.create ~seed:42L in
  Array.iteri
    (fun i expect ->
      Alcotest.(check int) (Printf.sprintf "bits[%d]" i) expect (Rng.bits r))
    golden_bits_42

let rng_golden_float () =
  let r = Rng.create ~seed:42L in
  Array.iteri
    (fun i expect ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "float[%d]" i)
        expect (Rng.float r))
    golden_float_42

let rng_golden_exponential () =
  let r = Rng.create ~seed:42L in
  Array.iteri
    (fun i expect ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "exponential[%d]" i)
        expect (Rng.exponential r ~mean:1.))
    golden_exponential_42

(* Uniformity sanity across arbitrary seeds: first two moments of the
   float stream must sit near those of U(0,1) (mean 1/2, variance 1/12)
   for every seed, not just the hand-picked ones above. *)
let rng_uniformity_property =
  QCheck.Test.make ~name:"float draws are U(0,1) in mean and variance"
    ~count:25
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let r = Rng.create ~seed:(Int64.of_int seed) in
      let n = 10_000 in
      let sum = ref 0. and sumsq = ref 0. in
      for _ = 1 to n do
        let v = Rng.float r in
        sum := !sum +. v;
        sumsq := !sumsq +. (v *. v)
      done;
      let mean = !sum /. float_of_int n in
      let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
      Float.abs (mean -. 0.5) < 0.02 && Float.abs (var -. (1. /. 12.)) < 0.01)

(* With 63-bit states, two of 1000 derived streams colliding means the
   label mixing is broken, not that we got unlucky. *)
let rng_split_named_collisions () =
  let parent = Rng.create ~seed:7L in
  let seen = Hashtbl.create 1024 in
  for i = 0 to 999 do
    let child = Rng.split_named parent (Printf.sprintf "client-%d" i) in
    let first = Rng.bits child in
    if Hashtbl.mem seen first then
      Alcotest.failf "streams for two labels collide (first draw %d)" first;
    Hashtbl.add seen first ()
  done

(* Free-list recycling: a popped or cancelled slot is reused by later
   schedules, and handles to its previous occupants must stay dead —
   cancelling one must never touch the slot's new event. *)
let eq_stale_handle_is_inert () =
  let q = Event_queue.create ~capacity:2 () in
  let h1 = Event_queue.schedule q (Time.of_sec 1.) ignore in
  (match Event_queue.pop q with
  | Some _ -> ()
  | None -> Alcotest.fail "pop returned nothing");
  let h2 = Event_queue.schedule q (Time.of_sec 2.) ignore in
  Alcotest.(check bool) "popped handle is dead" false
    (Event_queue.is_pending q h1);
  Event_queue.cancel q h1;
  Alcotest.(check bool) "stale cancel spares the slot's new event" true
    (Event_queue.is_pending q h2)

let eq_free_list_interleavings () =
  let q = Event_queue.create ~capacity:2 () in
  let stale = ref [] in
  let check_stale_dead () =
    List.iter
      (fun h ->
        Alcotest.(check bool) "stale handle stays dead" false
          (Event_queue.is_pending q h);
        Event_queue.cancel q h)
      !stale
  in
  for i = 1 to 100 do
    let at k = Time.of_sec (float_of_int i +. k) in
    let ha = Event_queue.schedule q (at 0.) ignore in
    let hb = Event_queue.schedule q (at 0.25) ignore in
    let hc = Event_queue.schedule q (at 0.5) ignore in
    Event_queue.cancel q hb;
    (* Popping skims the cancelled hb off the heap and fires ha. *)
    (match Event_queue.pop q with
    | Some (t, _) -> check_float "pop returns the live earliest"
        (Time.to_sec (at 0.)) (Time.to_sec t)
    | None -> Alcotest.fail "pop returned nothing");
    Event_queue.cancel q hc;
    stale := ha :: hb :: hc :: !stale;
    check_stale_dead ()
  done;
  (* Every slot above has been recycled many times; a live event must
     survive the whole graveyard being cancelled again. *)
  let live = Event_queue.schedule q (Time.of_sec 1e6) ignore in
  check_stale_dead ();
  Alcotest.(check bool) "live event survives stale cancels" true
    (Event_queue.is_pending q live);
  Alcotest.(check int) "exactly the live event remains" 1
    (Event_queue.length q)

(* ------------------------------------------------------------------ *)
(* Timer wheel *)

let wheel_rejects_near_and_far () =
  let w = Timer_wheel.create ~capacity:8 () in
  let q = Timer_wheel.quantum_ns in
  (* Due within one quantum of the cursor: the caller must keep it. *)
  Alcotest.(check bool) "near is rejected" false
    (Timer_wheel.add w ~item:0 ~time_ns:(q / 2));
  (* At or past the horizon: also rejected. *)
  Alcotest.(check bool) "beyond horizon is rejected" false
    (Timer_wheel.add w ~item:1 ~time_ns:(Timer_wheel.horizon_ns));
  Alcotest.(check int) "nothing stored" 0 (Timer_wheel.count w);
  Alcotest.(check bool) "parkable is accepted" true
    (Timer_wheel.add w ~item:2 ~time_ns:(4 * q));
  Alcotest.(check int) "one stored" 1 (Timer_wheel.count w)

let wheel_flushes_by_deadline () =
  let w = Timer_wheel.create ~capacity:8 () in
  let q = Timer_wheel.quantum_ns in
  let deadline = 10 * q in
  Alcotest.(check bool) "parked" true (Timer_wheel.add w ~item:3 ~time_ns:deadline);
  let flushed = ref [] in
  let flush i = flushed := i :: !flushed in
  (* Advancing to two quanta short of the deadline must not flush: the
     wheel may be up to one quantum early, never two. *)
  Timer_wheel.advance w ~upto_ns:(deadline - (2 * q)) ~flush;
  Alcotest.(check (list int)) "not flushed early" [] !flushed;
  Timer_wheel.advance w ~upto_ns:deadline ~flush;
  Alcotest.(check (list int)) "flushed at deadline" [ 3 ] !flushed;
  Alcotest.(check int) "empty again" 0 (Timer_wheel.count w);
  Alcotest.(check bool) "cursor past the bucket" true
    (Timer_wheel.cursor_ns w > deadline - q)

let wheel_cascades_levels () =
  (* An item far enough out to live in a level >= 1 bucket must cascade
     down and still flush by its deadline, whether the cursor gets there
     in one jump or in many small steps. *)
  let n = Timer_wheel.buckets_per_level in
  let steps_of stride =
    let w = Timer_wheel.create ~capacity:8 () in
    let q = Timer_wheel.quantum_ns in
    (* n buckets per level-0 ring: 4n + 44 quanta needs level 1 or
       higher. *)
    let deadline = ((4 * n) + 44) * q in
    Alcotest.(check bool) "parked high" true
      (Timer_wheel.add w ~item:7 ~time_ns:deadline);
    let flushed_at = ref (-1) in
    let t = ref 0 in
    while !flushed_at < 0 && !t <= deadline + q do
      t := !t + stride;
      Timer_wheel.advance w ~upto_ns:!t ~flush:(fun i ->
          Alcotest.(check int) "the parked item" 7 i;
          flushed_at := !t)
    done;
    Alcotest.(check bool)
      (Printf.sprintf "flushed by deadline (stride %d): %d" stride !flushed_at)
      true
      (!flushed_at >= 0 && !flushed_at <= deadline + stride);
    Alcotest.(check bool) "not flushed absurdly early" true
      (!flushed_at > deadline - (2 * q))
  in
  steps_of (Timer_wheel.quantum_ns / 3);
  steps_of (n * Timer_wheel.quantum_ns)

let wheel_bounded_advance_straddles_rollover () =
  (* The sharded PDES engine drains its schedulers in bounded time
     windows, so the wheel sees a long train of small [advance] calls
     instead of one event-to-event jump — including advances that stop
     exactly on, one shy of, and one past a ring-rollover boundary.
     Items parked just around those boundaries (level-0 ring wraps at
     n quanta, level-1 at n*n, for n buckets per level) must each flush
     exactly once, never more than one quantum early and never after
     deadline + stride. *)
  let strides = [ Timer_wheel.quantum_ns / 2; Timer_wheel.quantum_ns ] in
  let n = Timer_wheel.buckets_per_level in
  let run_with stride =
    let w = Timer_wheel.create ~capacity:16 () in
    let q = Timer_wheel.quantum_ns in
    (* Deadlines bracketing the level-0 ring wrap (n q) and the
       level-1 wrap (n*n q), plus one mid-ring control point. *)
    let deadlines =
      List.map (fun k -> k * q)
        [ n - 1; n; n + 1; (4 * n) + 44; (n * n) - 1; n * n; (n * n) + 1 ]
    in
    let items = List.mapi (fun i d -> (i, d)) deadlines in
    List.iter
      (fun (i, d) ->
        Alcotest.(check bool) "parked" true (Timer_wheel.add w ~item:i ~time_ns:d))
      items;
    let flushed_at = Array.make (List.length items) (-1) in
    let t = ref 0 in
    let horizon = (((n * n) + 1) * q) + (2 * stride) in
    while !t <= horizon do
      let upto = !t in
      Timer_wheel.advance w ~upto_ns:upto ~flush:(fun i ->
          Alcotest.(check int)
            (Printf.sprintf "item %d flushed once (stride %d)" i stride)
            (-1) flushed_at.(i);
          flushed_at.(i) <- upto);
      t := !t + stride
    done;
    List.iter
      (fun (i, d) ->
        let at = flushed_at.(i) in
        Alcotest.(check bool)
          (Printf.sprintf "item %d (deadline %dq) flushed in window (stride %d): %d"
             i (d / q) stride at)
          true
          (at >= 0 && at > d - (2 * q) && at <= d + stride))
      items;
    Alcotest.(check int) "wheel drained" 0 (Timer_wheel.count w)
  in
  List.iter run_with strides

(* Items parked from many cursor positions — so the cursor is often
   unaligned to a level-1 bucket — at delays around the level-0 and
   level-1 ring rollovers (n and n*n quanta for n buckets per level),
   with advances of random stride, short and long: every item flushes
   exactly once, in an advance whose [upto] is less than one quantum
   short of its deadline and no later than the first [advance] to reach
   the deadline, and the wheel ends empty. An [advance_first] flushes
   nothing only when nothing parked is due by its [upto], and leaves
   parked only items due after everything it flushed. A rejected add
   must be one due within a quantum of the cursor. *)
let wheel_random_strides_flush_once_property =
  let q = Timer_wheel.quantum_ns and n = Timer_wheel.buckets_per_level in
  let bases = [| q; (n - 1) * q; n * q; ((n * n) - n) * q; n * n * q |] in
  let strides = [| 1; q / 2; q; 3 * q; n * q; n * n * q |] in
  let interpret ops =
    let w = Timer_wheel.create ~capacity:4 () in
    (* Per item: deadline, and the [upto] it flushed at (-1: not yet). *)
    let deadline = ref [||] and flushed_at = ref [||] in
    let now = ref 0 and ok = ref true in
    let parked () =
      List.filter (fun i -> !flushed_at.(i) < 0) (List.init (Array.length !deadline) Fun.id)
    in
    let flush upto i =
      if !flushed_at.(i) >= 0 || !deadline.(i) - upto >= q then ok := false;
      !flushed_at.(i) <- upto
    in
    let advance upto =
      (* The items due by this [upto] that are still parked: each must
         flush in this very call. *)
      let due = List.filter (fun i -> !deadline.(i) <= upto) (parked ()) in
      Timer_wheel.advance w ~upto_ns:upto ~flush:(flush upto);
      if List.exists (fun i -> !flushed_at.(i) <> upto) due then ok := false;
      now := upto
    in
    let advance_first upto =
      let before = parked () in
      Timer_wheel.advance_first w ~upto_ns:upto ~flush:(flush upto);
      let left = parked () in
      let taken = List.filter (fun i -> !flushed_at.(i) = upto) before in
      let latest = List.fold_left (fun m i -> max m !deadline.(i)) min_int taken in
      if taken = [] && List.exists (fun i -> !deadline.(i) <= upto) left then ok := false;
      if List.exists (fun i -> !deadline.(i) <= latest) left then ok := false;
      now := upto
    in
    List.iter
      (fun (kind, a, b) ->
        if kind = 0 then begin
          let item = Array.length !deadline in
          let t =
            !now + max 0 (bases.(a mod Array.length bases) + ((b mod (4 * q)) - (2 * q)))
          in
          Timer_wheel.ensure_capacity w (item + 1);
          if Timer_wheel.add w ~item ~time_ns:t then begin
            deadline := Array.append !deadline [| t |];
            flushed_at := Array.append !flushed_at [| -1 |]
          end
          else if t >= Timer_wheel.cursor_ns w + q then ok := false
        end
        else begin
          let upto = !now + strides.(a mod Array.length strides) + (b mod q) in
          if kind = 1 then advance upto else advance_first upto
        end)
      ops;
    advance (Array.fold_left max (!now + 1) !deadline);
    !ok && Timer_wheel.count w = 0 && Array.for_all (fun at -> at >= 0) !flushed_at
  in
  QCheck2.Test.make ~name:"wheel flushes each item once, on time" ~count:300
    ~print:QCheck2.Print.(list (triple int int int))
    QCheck2.Gen.(
      list_size (int_range 1 60)
        (triple (int_range 0 2) (int_range 0 1_000) (int_range 0 max_int)))
    interpret

(* The windowed-drain equivalence the PDES engine rests on: running a
   scheduler to [until] in many bounded windows must fire exactly the
   events a single monolithic drain fires, in exactly the same order —
   wheel staging, due-now fast path and FIFO tie-breaks included. *)
let sched_windowed_matches_monolithic_property =
  let interpret (window_raw, times) =
    let window_ns = (1 + window_raw) * 37_000_000 in
    let horizon_ns = 2_100_000_000 in
    let fire_order sched_drain =
      let s = Scheduler.create () in
      let order = ref [] in
      List.iteri
        (fun i t_ns ->
          ignore (Scheduler.at s (Time.of_ns t_ns) (fun () -> order := i :: !order)))
        times;
      sched_drain s;
      List.rev !order
    in
    let monolithic = fire_order (fun s -> Scheduler.run ~until:(Time.of_ns horizon_ns) s) in
    let windowed =
      fire_order (fun s ->
          let t = ref 0 in
          while !t < horizon_ns do
            t := min horizon_ns (!t + window_ns);
            Scheduler.run ~until:(Time.of_ns !t) s
          done)
    in
    monolithic = windowed && List.length monolithic = List.length times
  in
  QCheck.Test.make
    ~name:"windowed scheduler drain == monolithic drain" ~count:100
    QCheck.(pair (int_bound 40) (small_list (int_bound 2_000_000_000)))
    interpret

(* ------------------------------------------------------------------ *)
(* Event queue over the wheel: keyed timers and pre-sizing *)

let eq_keyed_dispatch_and_reserved_key () =
  let q = Event_queue.create () in
  let got = ref [] in
  let f key = got := key :: !got in
  ignore (Event_queue.schedule_keyed q (Time.of_sec 1.) f 42);
  ignore (Event_queue.schedule_keyed q (Time.of_sec 2.) f 7);
  let h = Event_queue.pop_if_before q (Time.of_sec 10.) in
  Alcotest.(check bool) "first due" false (Event_queue.is_nil h);
  Event_queue.fire q h;
  Alcotest.(check (list int)) "keyed action got its key" [ 42 ] !got;
  Alcotest.check_raises "min_int reserved"
    (Invalid_argument "Event_queue.schedule_keyed: reserved key") (fun () ->
      ignore (Event_queue.schedule_keyed q (Time.of_sec 3.) f min_int))

let eq_cancel_after_fire_is_inert () =
  let q = Event_queue.create ~capacity:2 () in
  let h = Event_queue.schedule q (Time.of_sec 1.) ignore in
  let popped = Event_queue.pop_if_before q (Time.of_sec 5.) in
  Event_queue.fire q popped;
  (* The slot is free again; a later event recycles it. Cancelling the
     fired handle must not touch the newcomer. *)
  let h2 = Event_queue.schedule q (Time.of_sec 2.) ignore in
  Alcotest.(check bool) "fired handle dead" false (Event_queue.is_pending q h);
  Event_queue.cancel q h;
  Alcotest.(check bool) "recycled slot's event survives" true
    (Event_queue.is_pending q h2)

let eq_presize_prevents_growth () =
  let q = Event_queue.create ~capacity:64 () in
  let hs =
    List.init 64 (fun i ->
        Event_queue.schedule q (Time.of_sec (float_of_int i)) ignore)
  in
  Alcotest.(check int) "no growth inside capacity" 0 (Event_queue.growth_count q);
  Alcotest.(check int) "capacity held" 64 (Event_queue.capacity q);
  (* Steady state: pop one, schedule one — recycled slots, still no growth. *)
  for i = 0 to 99 do
    let h = Event_queue.pop_if_before q Time.never in
    Event_queue.fire q h;
    ignore (Event_queue.schedule q (Time.of_sec (float_of_int (100 + i))) ignore)
  done;
  Alcotest.(check int) "steady state allocates no slots" 0
    (Event_queue.growth_count q);
  (* One past capacity: exactly one doubling. *)
  ignore (Event_queue.schedule q (Time.of_sec 1e3) ignore);
  Alcotest.(check int) "overflow doubles once" 1 (Event_queue.growth_count q);
  List.iter (fun h -> Event_queue.cancel q h) hs

let eq_far_timers_park_in_wheel () =
  let q = Event_queue.create () in
  ignore (Event_queue.schedule q (Time.of_sec 30.) ignore);
  ignore (Event_queue.schedule q (Time.of_ms 0.5) ignore);
  Alcotest.(check int) "only the far timer parked" 1 (Event_queue.wheel_parked q)

(* The equivalence property behind the wheel: an Event_queue (heap +
   wheel staging) must pop in exactly (time, scheduling order) — i.e.
   behave like a plain sorted list — under arbitrary interleavings of
   schedule / cancel / re-arm / pop, with times spread across wheel
   levels. *)
let eq_wheel_matches_reference_property =
  let interpret ops =
    let q = Event_queue.create ~capacity:4 () in
    (* Reference: (time_ns, seq, id, alive) — popped by (time, seq). *)
    let model = ref [] in
    let handles = ref [] in
    (* (handle, model cell) pairs *)
    let seq = ref 0 in
    let fired = ref (-1) in
    let ok = ref true in
    let pop_both () =
      let live = List.filter (fun (_, _, _, alive) -> !alive) !model in
      let best =
        List.fold_left
          (fun acc ((t, s, _, _) as c) ->
            match acc with
            | None -> Some c
            | Some (bt, bs, _, _) ->
                if t < bt || (t = bt && s < bs) then Some c else acc)
          None live
      in
      match (Event_queue.pop q, best) with
      | None, None -> ()
      | Some (t, act), Some (mt, _, mid, alive) ->
          act ();
          alive := false;
          if Time.to_ns t <> mt || !fired <> mid then ok := false
      | Some _, None | None, Some _ -> ok := false
    in
    List.iter
      (fun (kind, x) ->
        match kind with
        | 0 ->
            (* Times stride ~0.1 ms so a run of schedules spans level-0
               buckets, level-1+ buckets and the due-now fast path. *)
            let t_ns = x * 97_003 in
            let id = !seq in
            incr seq;
            let h =
              Event_queue.schedule q (Time.of_ns t_ns) (fun () -> fired := id)
            in
            let cell = (t_ns, id, id, ref true) in
            model := cell :: !model;
            handles := (h, cell) :: !handles
        | 1 -> (
            match !handles with
            | [] -> ()
            | hs ->
                let h, (_, _, _, alive) = List.nth hs (x mod List.length hs) in
                Event_queue.cancel q h;
                alive := false)
        | _ -> pop_both ())
      ops;
    (* Drain: the full remaining order must match too. *)
    let rec drain n = if n > 0 then (pop_both (); drain (n - 1)) in
    drain (List.length !model);
    pop_both ();
    !ok && Event_queue.is_empty q
  in
  QCheck.Test.make ~name:"wheel-backed queue pops like a sorted list" ~count:300
    QCheck.(list (pair (int_bound 2) (int_bound 1_000_000)))
    interpret

(* A parked event's time lives only in the wheel until it is flushed
   into the heap; [time_of] must still report it exactly. A handle kept
   past its event — cancelled after firing, or after its slot has gone
   to a newer event — must touch nothing. *)
let eq_time_of_through_wheel () =
  let q = Event_queue.create ~capacity:2 () in
  let at = Time.of_ns 1_234_567_891 in
  let h = Event_queue.schedule q at ignore in
  Alcotest.(check int) "parked" 1 (Event_queue.wheel_parked q);
  let popped = Event_queue.pop_if_before q Time.never in
  Alcotest.(check int) "scheduled time" (Time.to_ns at)
    (Time.to_ns (Event_queue.time_of q popped));
  Event_queue.fire q popped;
  Event_queue.cancel q popped;
  Alcotest.(check int) "cancel after fire: nothing live" 0 (Event_queue.length q);
  let later = Time.of_ns 2_500_000_003 in
  let h2 = Event_queue.schedule q later ignore in
  Event_queue.cancel q h;
  Alcotest.(check bool) "stale handle spares the newcomer" true
    (Event_queue.is_pending q h2);
  let popped2 = Event_queue.pop_if_before q Time.never in
  Alcotest.(check bool) "newcomer pops" false (Event_queue.is_nil popped2);
  Alcotest.(check int) "its time" (Time.to_ns later)
    (Time.to_ns (Event_queue.time_of q popped2))

(* A queue whose heap has drained must not flush the wheel far ahead of
   the clock: with the cursor past the next hop, a timer due 250 ms out
   would land in the heap instead of parking. Two events park; popping
   the first empties the heap; a third, 250 ms after the first, must
   park too. *)
let eq_drained_heap_keeps_parking () =
  let q = Event_queue.create () in
  ignore (Event_queue.schedule q (Time.of_sec 1.) ignore);
  ignore (Event_queue.schedule q (Time.of_sec 5.) ignore);
  Alcotest.(check int) "both parked" 2 (Event_queue.wheel_parked q);
  let h = Event_queue.pop_if_before q Time.never in
  Alcotest.(check int) "the first pops" (Time.to_ns (Time.of_sec 1.))
    (Time.to_ns (Event_queue.time_of q h));
  Event_queue.fire q h;
  ignore (Event_queue.schedule q (Time.of_sec 1.25) ignore);
  Alcotest.(check int) "the 250 ms hop parks" 3 (Event_queue.wheel_parked q);
  let times = ref [] in
  let rec drain () =
    let h = Event_queue.pop_if_before q Time.never in
    if not (Event_queue.is_nil h) then begin
      times := Time.to_ns (Event_queue.time_of q h) :: !times;
      Event_queue.fire q h;
      drain ()
    end
  in
  drain ();
  Alcotest.(check (list int)) "the rest pop in time order"
    [ Time.to_ns (Time.of_sec 1.25); Time.to_ns (Time.of_sec 5.) ]
    (List.rev !times)

(* Equal times are the only case in which the heap reads [seq], and the
   property above spaces its times ~97 us apart, so ties are rare there.
   Here every time comes from a handful of offsets, some within one
   wheel quantum of each other and some far enough out to park, taken
   either from zero or from the last popped time, so most schedules tie
   with another. Plain and keyed schedules, cancels and
   pops at random horizons interleave; after every pop the event and
   [time_of] must match the head of a stable sort of the live events by
   time, and a pop must return nil exactly when that head is beyond the
   horizon. *)
let eq_dense_ties_match_stable_sort_property =
  let q = Timer_wheel.quantum_ns in
  let offsets =
    [| 0; 0; 1; 1_000; q - 1; q; q + 1; 2 * q; 50_000_000; 50_000_001;
       3_000_000_000 |]
  in
  let horizons = [| 0; 1; q; 10_000_000; max_int |] in
  let interpret ops =
    let q = Event_queue.create ~capacity:2 () in
    (* Live events in schedule order: (time_ns, id, alive). *)
    let events = ref [] in
    let handles = ref [||] in
    let next_id = ref 0 in
    let fired = ref (-1) in
    let now = ref 0 in
    let ok = ref true in
    let head () =
      List.rev !events
      |> List.filter (fun (_, _, alive) -> !alive)
      |> List.stable_sort (fun (a, _, _) (b, _, _) -> compare a b)
      |> function [] -> None | e :: _ -> Some e
    in
    let pop_until horizon =
      let h = Event_queue.pop_if_before q (Time.of_ns horizon) in
      match head () with
      | Some (t, id, alive) when t <= horizon ->
          if Event_queue.is_nil h then ok := false
          else begin
            let got = Time.to_ns (Event_queue.time_of q h) in
            Event_queue.fire q h;
            alive := false;
            if got <> t || !fired <> id then ok := false;
            now := got
          end
      | Some _ | None -> if not (Event_queue.is_nil h) then ok := false
    in
    List.iter
      (fun (kind, a, b) ->
        match kind with
        | 0 | 1 ->
            let base = if b land 1 = 0 then 0 else !now in
            let t = base + offsets.(a mod Array.length offsets) in
            let id = !next_id in
            incr next_id;
            let h =
              if kind = 0 then
                Event_queue.schedule q (Time.of_ns t) (fun () -> fired := id)
              else
                Event_queue.schedule_keyed q (Time.of_ns t)
                  (fun k -> fired := k) id
            in
            events := (t, id, ref true) :: !events;
            handles := Array.append !handles [| h |]
        | 2 ->
            let n = Array.length !handles in
            if n > 0 then begin
              let i = a mod n in
              Event_queue.cancel q !handles.(i);
              let _, _, alive = List.nth (List.rev !events) i in
              alive := false
            end
        | _ ->
            let dh = horizons.(a mod Array.length horizons) in
            pop_until (if dh = max_int then max_int - 1 else !now + dh))
      ops;
    List.iter (fun _ -> pop_until (max_int - 1)) !events;
    !ok && Event_queue.is_empty q && head () = None
  in
  QCheck2.Test.make ~name:"dense ties pop like a stable sort by time"
    ~count:300
    ~print:QCheck2.Print.(list (triple int int int))
    QCheck2.Gen.(
      list_size (int_range 0 120)
        (triple (int_range 0 3) (int_range 0 1_000) (int_range 0 1)))
    interpret

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "engine.time",
      [
        Alcotest.test_case "roundtrip" `Quick time_roundtrip;
        Alcotest.test_case "arithmetic" `Quick time_arithmetic;
        Alcotest.test_case "invalid inputs" `Quick time_invalid;
      ] );
    ( "engine.event_queue",
      [
        Alcotest.test_case "time order" `Quick eq_fires_in_time_order;
        Alcotest.test_case "fifo within timestamp" `Quick eq_fifo_within_timestamp;
        Alcotest.test_case "cancel" `Quick eq_cancel;
        Alcotest.test_case "next_time skips cancelled" `Quick eq_next_time_skips_cancelled;
        Alcotest.test_case "high-water mark" `Quick eq_high_water_mark;
        Alcotest.test_case "stale handle is inert" `Quick eq_stale_handle_is_inert;
        Alcotest.test_case "free-list interleavings" `Quick eq_free_list_interleavings;
        Alcotest.test_case "keyed dispatch and reserved key" `Quick
          eq_keyed_dispatch_and_reserved_key;
        Alcotest.test_case "cancel after fire is inert" `Quick
          eq_cancel_after_fire_is_inert;
        Alcotest.test_case "pre-size prevents growth" `Quick eq_presize_prevents_growth;
        Alcotest.test_case "far timers park in wheel" `Quick eq_far_timers_park_in_wheel;
        Alcotest.test_case "time_of through the wheel" `Quick eq_time_of_through_wheel;
      ]
      @ qsuite
          [
            eq_wheel_matches_reference_property;
            eq_dense_ties_match_stable_sort_property;
          ]
      @ [
          Alcotest.test_case "drained heap keeps parking" `Quick
            eq_drained_heap_keeps_parking;
        ] );
    ( "engine.timer_wheel",
      [
        Alcotest.test_case "rejects near and far times" `Quick wheel_rejects_near_and_far;
        Alcotest.test_case "flushes by deadline" `Quick wheel_flushes_by_deadline;
        Alcotest.test_case "cascades across levels" `Quick wheel_cascades_levels;
        Alcotest.test_case "bounded advances straddle ring rollover" `Quick
          wheel_bounded_advance_straddles_rollover;
      ]
      @ qsuite
          [
            sched_windowed_matches_monolithic_property;
            wheel_random_strides_flush_once_property;
          ] );
    ( "engine.scheduler",
      [
        Alcotest.test_case "runs and advances clock" `Quick sched_runs_and_advances_clock;
        Alcotest.test_case "until bounds run" `Quick sched_until_bounds_and_advances;
        Alcotest.test_case "nested scheduling" `Quick sched_nested_scheduling;
        Alcotest.test_case "stop" `Quick sched_stop;
        Alcotest.test_case "queue high-water mark" `Quick sched_queue_high_water_mark;
        Alcotest.test_case "rejects past times" `Quick sched_rejects_past;
      ] );
    ( "engine.rng",
      [
        Alcotest.test_case "deterministic" `Quick rng_deterministic;
        Alcotest.test_case "seed sensitivity" `Quick rng_different_seeds;
        Alcotest.test_case "split independence" `Quick rng_split_independent;
        Alcotest.test_case "split_named stability" `Quick rng_split_named_stable;
        Alcotest.test_case "uniform mean" `Quick rng_float_uniform_mean;
        Alcotest.test_case "float_range bounds" `Quick rng_float_range;
        Alcotest.test_case "exponential mean" `Quick rng_exponential_mean;
        Alcotest.test_case "pareto mean and support" `Quick rng_pareto_properties;
        Alcotest.test_case "gaussian moments" `Quick rng_gaussian_moments;
        Alcotest.test_case "int bounds" `Quick rng_int_bounds;
        Alcotest.test_case "bool probability" `Quick rng_bool_probability;
        Alcotest.test_case "golden bits" `Quick rng_golden_bits;
        Alcotest.test_case "golden float" `Quick rng_golden_float;
        Alcotest.test_case "golden exponential" `Quick rng_golden_exponential;
        Alcotest.test_case "split_named collisions" `Quick rng_split_named_collisions;
      ]
      @ qsuite [ rng_uniformity_property ] );
  ]
