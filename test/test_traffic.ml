(* Tests for the traffic sources. *)

module Time = Sim_engine.Time
module Scheduler = Sim_engine.Scheduler
module Rng = Sim_engine.Rng
open Traffic

let collect_arrivals () =
  let log = ref [] in
  let sink sched n = log := (Time.to_sec (Scheduler.now sched), n) :: !log in
  (log, sink)

let poisson_rate_and_count () =
  let sched = Scheduler.create () in
  let rng = Rng.create ~seed:1L in
  let log, sink = collect_arrivals () in
  let source =
    Poisson.start sched ~rng ~mean_interarrival:0.1 ~start:Time.zero
      ~until:(Time.of_sec 1000.) ~sink:(sink sched)
  in
  Scheduler.run sched;
  let n = source.Source.generated () in
  Alcotest.(check bool)
    (Printf.sprintf "rate ~ 10/s (got %d in 1000s)" n)
    true
    (n > 9500 && n < 10500);
  Alcotest.(check int) "sink calls match counter" n (List.length !log);
  Alcotest.(check bool) "single packets" true (List.for_all (fun (_, k) -> k = 1) !log)

let poisson_interarrival_distribution () =
  let sched = Scheduler.create () in
  let rng = Rng.create ~seed:2L in
  let log, sink = collect_arrivals () in
  ignore
    (Poisson.start sched ~rng ~mean_interarrival:0.5 ~start:Time.zero
       ~until:(Time.of_sec 5000.) ~sink:(sink sched));
  Scheduler.run sched;
  let times = List.rev_map fst !log in
  let gaps =
    match times with
    | [] -> []
    | first :: rest ->
        let _, acc =
          List.fold_left (fun (prev, acc) t -> (t, (t -. prev) :: acc)) (first, []) rest
        in
        acc
  in
  let s = Netstats.Summary.of_list gaps in
  (* Exponential: mean = std = 0.5, cov = 1. *)
  Alcotest.(check (float 0.03)) "mean gap" 0.5 s.Netstats.Summary.mean;
  Alcotest.(check (float 0.05)) "cov ~ 1" 1.0 s.Netstats.Summary.cov

let poisson_stops_at_horizon () =
  let sched = Scheduler.create () in
  let rng = Rng.create ~seed:3L in
  let log, sink = collect_arrivals () in
  ignore
    (Poisson.start sched ~rng ~mean_interarrival:0.01 ~start:Time.zero
       ~until:(Time.of_sec 1.) ~sink:(sink sched));
  Scheduler.run sched;
  Alcotest.(check bool) "no arrivals past horizon" true
    (List.for_all (fun (t, _) -> t <= 1.) !log)

let poisson_deterministic_with_seed () =
  let run seed =
    let sched = Scheduler.create () in
    let rng = Rng.create ~seed in
    let log, sink = collect_arrivals () in
    ignore
      (Poisson.start sched ~rng ~mean_interarrival:0.1 ~start:Time.zero
         ~until:(Time.of_sec 10.) ~sink:(sink sched));
    Scheduler.run sched;
    List.rev_map fst !log
  in
  Alcotest.(check bool) "same seed same arrivals" true (run 7L = run 7L);
  Alcotest.(check bool) "different seed differs" true (run 7L <> run 8L)

let onoff_pareto_generates_with_gaps () =
  let sched = Scheduler.create () in
  let rng = Rng.create ~seed:4L in
  let log, sink = collect_arrivals () in
  let params =
    {
      Onoff_pareto.on_shape = 1.5;
      on_mean = 0.5;
      off_shape = 1.5;
      off_mean = 0.5;
      rate = 100.;
    }
  in
  let source =
    Onoff_pareto.start sched ~rng ~params ~start:Time.zero ~until:(Time.of_sec 200.)
      ~sink:(sink sched)
  in
  Scheduler.run sched;
  let n = source.Source.generated () in
  (* Duty cycle ~ 1/2 of rate 100/s: expect very roughly 10000 packets. *)
  Alcotest.(check bool) (Printf.sprintf "plausible volume (%d)" n) true
    (n > 2000 && n < 20000);
  (* Heavy-tailed OFF periods leave long silences: max gap far above the
     10 ms on-interval. *)
  let times = Array.of_list (List.rev_map fst !log) in
  let max_gap = ref 0. in
  for i = 1 to Array.length times - 1 do
    max_gap := Stdlib.max !max_gap (times.(i) -. times.(i - 1))
  done;
  Alcotest.(check bool) "long silences exist" true (!max_gap > 0.5)

let onoff_rejects_infinite_mean () =
  let sched = Scheduler.create () in
  let rng = Rng.create ~seed:5L in
  Alcotest.check_raises "shape <= 1"
    (Invalid_argument "Onoff_pareto.start: shape <= 1 (infinite mean)") (fun () ->
      ignore
        (Onoff_pareto.start sched ~rng
           ~params:
             {
               Onoff_pareto.on_shape = 1.0;
               on_mean = 1.;
               off_shape = 1.5;
               off_mean = 1.;
               rate = 1.;
             }
           ~start:Time.zero ~until:(Time.of_sec 1.) ~sink:ignore))

let bulk_submits_once () =
  let sched = Scheduler.create () in
  let log, sink = collect_arrivals () in
  let source = Bulk.start sched ~size:42 ~start:(Time.of_sec 3.) ~sink:(sink sched) in
  Scheduler.run sched;
  Alcotest.(check int) "generated" 42 (source.Source.generated ());
  match !log with
  | [ (t, n) ] ->
      Alcotest.(check (float 1e-9)) "at start time" 3. t;
      Alcotest.(check int) "all at once" 42 n
  | _ -> Alcotest.fail "expected one submission"

let suite =
  [
    ( "traffic.poisson",
      [
        Alcotest.test_case "rate and count" `Quick poisson_rate_and_count;
        Alcotest.test_case "exponential interarrivals" `Slow poisson_interarrival_distribution;
        Alcotest.test_case "stops at horizon" `Quick poisson_stops_at_horizon;
        Alcotest.test_case "deterministic per seed" `Quick poisson_deterministic_with_seed;
      ] );
    ( "traffic.onoff_pareto",
      [
        Alcotest.test_case "volume and silences" `Quick onoff_pareto_generates_with_gaps;
        Alcotest.test_case "rejects infinite-mean shapes" `Quick onoff_rejects_infinite_mean;
      ] );
    ( "traffic.bulk", [ Alcotest.test_case "one-shot submission" `Quick bulk_submits_once ] );
  ]
