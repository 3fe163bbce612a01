(* Tests for the worker team and the determinism guarantee of parallel
   sweeps: fanning points across domains must change nothing but wall
   time. *)

module Team = Parallel.Pool.Team

(* ------------------------------------------------------------------ *)
(* Team.map: the parallel map a sweep fans its points through *)

let pool_create_validates () =
  Alcotest.(check bool) "domains < 1 raises" true
    (try
       ignore (Team.create ~domains:0);
       false
     with Invalid_argument _ -> true);
  let team = Team.create ~domains:1 in
  Alcotest.(check int) "size" 1 (Team.size team);
  Alcotest.(check (list int)) "one-domain map" [ 2; 3 ]
    (Team.map team succ [ 1; 2 ]);
  Team.shutdown team;
  Team.shutdown team (* idempotent *)

let pool_map_basics () =
  Team.with_team ~domains:3 (fun team ->
      Alcotest.(check (list int)) "empty" [] (Team.map team (fun x -> x) []);
      Alcotest.(check (list int)) "singleton" [ 9 ] (Team.map team (fun x -> x * x) [ 3 ]);
      Alcotest.(check (list int))
        "order preserved" [ 2; 4; 6; 8; 10 ]
        (Team.map team (fun x -> 2 * x) [ 1; 2; 3; 4; 5 ]))

let pool_map_reusable () =
  Team.with_team ~domains:2 (fun team ->
      for i = 1 to 5 do
        let n = 10 * i in
        let expected = List.init n (fun j -> j + 1) in
        Alcotest.(check (list int))
          (Printf.sprintf "map #%d" i)
          expected
          (Team.map team (fun x -> x + 1) (List.init n Fun.id))
      done)

exception Boom of int

let pool_map_propagates_exception () =
  Team.with_team ~domains:3 (fun team ->
      Alcotest.(check bool) "exception re-raised" true
        (try
           ignore
             (Team.map team
                (fun x -> if x = 7 then raise (Boom x) else x)
                (List.init 20 Fun.id));
           false
         with Boom 7 -> true);
      (* The team survives a failed map. *)
      Alcotest.(check (list int)) "still usable" [ 1; 2; 3 ]
        (Team.map team Fun.id [ 1; 2; 3 ]))

let pool_map_runs_every_element () =
  (* A raising element costs only itself: its rank moves on, so every
     other element still runs — on one domain as on three. *)
  List.iter
    (fun domains ->
      Team.with_team ~domains (fun team ->
          let ran = Array.make 20 0 in
          let raised =
            try
              ignore
                (Team.map team
                   (fun x ->
                     ran.(x) <- ran.(x) + 1;
                     if x mod 7 = 3 then raise (Boom x) else x)
                   (List.init 20 Fun.id));
              None
            with Boom x -> Some x
          in
          let label = Printf.sprintf "%d domain(s): %s" domains in
          Alcotest.(check bool) (label "a raising element re-raised") true
            (match raised with Some x -> List.mem x [ 3; 10; 17 ] | None -> false);
          Alcotest.(check (list int)) (label "every element ran once")
            (List.init 20 (fun _ -> 1))
            (Array.to_list ran)))
    [ 1; 3 ]

let pool_nested_map_raises () =
  (* A map from inside a running map on the same team cannot be served
     by ranks that are all busy: it raises instead of deadlocking. *)
  List.iter
    (fun domains ->
      Team.with_team ~domains (fun team ->
          let label = Printf.sprintf "%d domain(s): %s" domains in
          Alcotest.(check bool) (label "nested map raises") true
            (try
               ignore
                 (Team.map team (fun x -> Team.map team succ [ x ]) [ 1; 2; 3 ]);
               false
             with Invalid_argument _ -> true);
          Alcotest.(check (list int)) (label "team usable after") [ 2; 3 ]
            (Team.map team succ [ 1; 2 ])))
    [ 1; 2 ]

let pool_map_after_shutdown_raises () =
  let team = Team.create ~domains:2 in
  Team.shutdown team;
  Alcotest.(check bool) "map after shutdown raises" true
    (try
       ignore (Team.map team Fun.id [ 1 ]);
       false
     with Invalid_argument _ -> true)

let pool_map_equals_list_map =
  QCheck.Test.make ~name:"Pool.map f = List.map f" ~count:50
    QCheck.(pair (int_range 1 4) (small_list small_int))
    (fun (domains, xs) ->
      let f x = (x * 31) + 7 in
      Team.with_team ~domains (fun team -> Team.map team f xs) = List.map f xs)

(* ------------------------------------------------------------------ *)
(* Sweep determinism: domains must not change any result *)

let tiny_config =
  {
    (Burstcore.Config.with_clients Burstcore.Config.default 5) with
    Burstcore.Config.duration_s = 4.;
    warmup_s = 1.;
  }

let ns = [ 2; 4; 6 ]

let metrics_fingerprint ms =
  (* Every field, through the canonical JSON encoding — floats included,
     so any bit-level divergence shows up. *)
  String.concat "\n"
    (List.map
       (fun m -> Burstcore.Json.to_string (Burstcore.Export.metrics_to_json m))
       ms)

let sweep_deterministic_across_domains () =
  let run domains =
    Team.with_team ~domains (fun pool ->
        Burstcore.Sweep.over_clients ~pool tiny_config Burstcore.Scenario.reno ns)
  in
  let seq = run 1 and par = run 4 in
  Alcotest.(check string) "metrics bit-identical"
    (metrics_fingerprint seq) (metrics_fingerprint par)

let grid_deterministic_across_domains () =
  let scenarios = [ Burstcore.Scenario.reno; Burstcore.Scenario.vegas ] in
  let run domains =
    Team.with_team ~domains (fun pool ->
        Burstcore.Sweep.grid ~pool tiny_config scenarios ns)
  in
  let seq = run 1 and par = run 4 in
  List.iter2
    (fun (s_seq, ms_seq) (s_par, ms_par) ->
      Alcotest.(check bool) "same scenario" true
        (Burstcore.Scenario.equal s_seq s_par);
      Alcotest.(check string)
        ("series bit-identical: " ^ Burstcore.Scenario.label s_seq)
        (metrics_fingerprint ms_seq) (metrics_fingerprint ms_par))
    seq par

let replicated_deterministic_across_domains () =
  let run domains =
    Team.with_team ~domains (fun pool ->
        Burstcore.Sweep.replicated ~pool tiny_config Burstcore.Scenario.reno
          ~replicates:3 ns)
  in
  let seq = run 1 and par = run 4 in
  (* The records are plain floats and ints; (=) is bit-exact here. *)
  Alcotest.(check bool) "replicated records bit-identical" true (seq = par)

let parallel_probe_totals_match_sequential () =
  let totals domains =
    let probe = Telemetry.Probe.create () in
    Team.with_team ~domains (fun pool ->
        ignore
          (Burstcore.Sweep.over_clients ~pool ~probe tiny_config
             Burstcore.Scenario.reno ns));
    (Telemetry.Probe.runs_total probe, Telemetry.Probe.events_total probe)
  in
  let seq_runs, seq_events = totals 1 and par_runs, par_events = totals 4 in
  Alcotest.(check int) "runs merge to same total" seq_runs par_runs;
  Alcotest.(check int) "event counts merge to same total" seq_events par_events

let grid_bus_stream_matches_sequential () =
  (* A pooled sweep's bus hears every point through Probe.merge's replay
     of the workers' parity recordings: the same stream, in the same
     order, as the sequential sweep's per-run replays. *)
  let scenarios = [ Burstcore.Scenario.reno; Burstcore.Scenario.reno_red ] in
  let stream pool =
    let probe = Telemetry.Probe.create () in
    let buf = Buffer.create (1 lsl 16) in
    ignore
      (Telemetry.Event_bus.subscribe probe.Telemetry.Probe.bus (fun e ->
           Buffer.add_string buf (Telemetry.Event_bus.to_ndjson e);
           Buffer.add_char buf '\n'));
    ignore (Burstcore.Sweep.grid ?pool ~probe tiny_config scenarios [ 4; 20 ]);
    Alcotest.(check bool) "trace-only worker recordings not adopted" true
      (Telemetry.Probe.segments probe = []);
    Buffer.contents buf
  in
  let seq = stream None in
  let par = Team.with_team ~domains:2 (fun pool -> stream (Some pool)) in
  Alcotest.(check bool) "queue decisions on the bus" true
    (Astring_like.contains seq "\"event\":\"queue\"");
  Alcotest.(check string) "2-domain stream equals sequential" seq par

let parallel_notify_counts_match () =
  let count domains =
    let seen = Atomic.make 0 in
    Team.with_team ~domains (fun pool ->
        ignore
          (Burstcore.Sweep.replicated ~pool
             ~notify:(fun _ -> Atomic.incr seen)
             tiny_config Burstcore.Scenario.reno ~replicates:2 ns));
    Atomic.get seen
  in
  Alcotest.(check int) "notify fires once per point" (count 1) (count 4)

(* ------------------------------------------------------------------ *)
(* Team: the SPMD barrier primitive under the sharded PDES engine *)

let team_create_validates () =
  Alcotest.(check bool) "domains < 1 raises" true
    (try
       ignore (Team.create ~domains:0);
       false
     with Invalid_argument _ -> true);
  let team = Team.create ~domains:1 in
  Alcotest.(check int) "size" 1 (Team.size team);
  (* A one-domain team runs the body inline on the caller. *)
  let ran = ref false in
  Team.run team (fun rank ->
      Alcotest.(check int) "solo rank" 0 rank;
      ran := true);
  Alcotest.(check bool) "body ran" true !ran;
  Team.shutdown team;
  Team.shutdown team (* idempotent *)

let team_lockstep_windows () =
  (* The PDES shape: every rank must see every other rank's pre-barrier
     writes after the rendezvous, window after window, on one team. *)
  Team.with_team ~domains:4 (fun team ->
      let windows = 8 in
      let arrived = Array.init windows (fun _ -> Atomic.make 0) in
      let ok = Atomic.make true in
      Team.run team (fun _rank ->
          for w = 0 to windows - 1 do
            Atomic.incr arrived.(w);
            Team.barrier team;
            if Atomic.get arrived.(w) <> 4 then Atomic.set ok false;
            (* Second barrier keeps a fast rank from racing into the
               next window's increment before everyone has checked. *)
            Team.barrier team
          done);
      Alcotest.(check bool) "all 4 ranks seen at every window boundary" true
        (Atomic.get ok))

let team_runs_every_rank () =
  Team.with_team ~domains:3 (fun team ->
      let seen = Array.make 3 false in
      Team.run team (fun rank -> seen.(rank) <- true);
      Alcotest.(check (list bool))
        "ranks 0..2 each ran" [ true; true; true ]
        (Array.to_list seen))

let team_abort_wakes_blocked_ranks () =
  (* One rank raising mid-window must wake the ranks already parked in
     the barrier with Aborted (no deadlock), re-raise the original
     exception in the caller, and leave the team reusable. *)
  Team.with_team ~domains:3 (fun team ->
      let aborted_seen = Atomic.make 0 in
      let raised =
        try
          Team.run team (fun rank ->
              if rank = 1 then raise (Boom 41)
              else begin
                try
                  Team.barrier team;
                  Team.barrier team
                with Team.Aborted ->
                  Atomic.incr aborted_seen;
                  raise Team.Aborted
              end);
          false
        with Boom 41 -> true
      in
      Alcotest.(check bool) "Boom re-raised in caller" true raised;
      Alcotest.(check int) "both surviving ranks woken with Aborted" 2
        (Atomic.get aborted_seen);
      let sum = Atomic.make 0 in
      Team.run team (fun rank ->
          ignore (Atomic.fetch_and_add sum rank);
          Team.barrier team);
      Alcotest.(check int) "team reusable after a failed run" 3
        (Atomic.get sum))

let team_run_after_shutdown_raises () =
  let team = Team.create ~domains:2 in
  Team.shutdown team;
  Alcotest.(check bool) "run after shutdown raises" true
    (try
       Team.run team (fun _ -> ());
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Sharded PDES single-run determinism: the shard count must change
   nothing but wall time *)

let pdes_cfg shards = { tiny_config with Burstcore.Config.shards }

let single_run_fingerprint shards scenario =
  metrics_fingerprint [ Burstcore.Run.run (pdes_cfg shards) scenario ]

let pdes_deterministic_across_shards () =
  List.iter
    (fun scenario ->
      let one = single_run_fingerprint 1 scenario in
      let four = single_run_fingerprint 4 scenario in
      Alcotest.(check string)
        ("1-shard vs 4-shard bit-identical: "
        ^ Burstcore.Scenario.label scenario)
        one four)
    Burstcore.Scenario.[ reno; reno_red; udp ]

let pdes_shards_exceeding_clients_clamp () =
  (* More shards than clients must clamp, not crash or diverge. *)
  Alcotest.(check string) "8 shards over 5 clients == 1 shard"
    (single_run_fingerprint 1 Burstcore.Scenario.reno)
    (single_run_fingerprint 8 Burstcore.Scenario.reno)

let pdes_hybrid_deterministic_across_shards () =
  (* The hybrid quantum tick lives on the hub scheduler and reads only
     hub-local state, so enabling fluid background load must leave the
     result invariant under the shard count — bit for bit, like the
     pure-packet path. *)
  let cfg shards =
    { (pdes_cfg shards) with Burstcore.Config.background = 200 }
  in
  let fingerprint shards =
    metrics_fingerprint
      [ Burstcore.Run.run (cfg shards) Burstcore.Scenario.reno_red ]
  in
  Alcotest.(check string)
    "1-shard vs 4-shard bit-identical with background load" (fingerprint 1)
    (fingerprint 4)

let pdes_rejects_prepare () =
  Alcotest.(check bool) "?prepare rejected under shards >= 1" true
    (try
       ignore
         (Burstcore.Run.run
            ~prepare:(fun _ -> ())
            (pdes_cfg 2) Burstcore.Scenario.reno);
       false
     with Invalid_argument _ -> true)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "parallel.pool",
      [
        Alcotest.test_case "create validates" `Quick pool_create_validates;
        Alcotest.test_case "map basics" `Quick pool_map_basics;
        Alcotest.test_case "map reusable" `Quick pool_map_reusable;
        Alcotest.test_case "exception propagation" `Quick
          pool_map_propagates_exception;
        Alcotest.test_case "map after shutdown raises" `Quick
          pool_map_after_shutdown_raises;
      ]
      @ qsuite [ pool_map_equals_list_map ]
      @ [
          Alcotest.test_case "map runs every element when one raises" `Quick
            pool_map_runs_every_element;
          Alcotest.test_case "nested map raises" `Quick pool_nested_map_raises;
        ] );
    ( "parallel.determinism",
      [
        Alcotest.test_case "over_clients 1 vs 4 domains" `Quick
          sweep_deterministic_across_domains;
        Alcotest.test_case "grid 1 vs 4 domains" `Quick
          grid_deterministic_across_domains;
        Alcotest.test_case "replicated 1 vs 4 domains" `Quick
          replicated_deterministic_across_domains;
        Alcotest.test_case "probe totals merge" `Quick
          parallel_probe_totals_match_sequential;
        Alcotest.test_case "notify count" `Quick parallel_notify_counts_match;
        Alcotest.test_case "grid bus stream 2 domains" `Quick
          grid_bus_stream_matches_sequential;
      ] );
    ( "parallel.team",
      [
        Alcotest.test_case "create validates" `Quick team_create_validates;
        Alcotest.test_case "lockstep windows" `Quick team_lockstep_windows;
        Alcotest.test_case "runs every rank" `Quick team_runs_every_rank;
        Alcotest.test_case "abort wakes blocked ranks" `Quick
          team_abort_wakes_blocked_ranks;
        Alcotest.test_case "run after shutdown raises" `Quick
          team_run_after_shutdown_raises;
      ] );
    ( "parallel.pdes",
      [
        Alcotest.test_case "1 vs 4 shards bit-identical" `Quick
          pdes_deterministic_across_shards;
        Alcotest.test_case "shards clamp to clients" `Quick
          pdes_shards_exceeding_clients_clamp;
        Alcotest.test_case "hybrid background bit-identical across shards"
          `Quick pdes_hybrid_deterministic_across_shards;
        Alcotest.test_case "rejects prepare" `Quick pdes_rejects_prepare;
      ] );
  ]
