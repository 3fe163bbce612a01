(* Tests for the telemetry subsystem: registry, event bus, perf phases,
   progress reporting, report contract, and probe integration with Run. *)

open Telemetry

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Registry *)

let registry_get_or_create () =
  let r = Registry.create () in
  let a = Registry.counter r "requests_total" in
  let b = Registry.counter r "requests_total" in
  Registry.inc a;
  Registry.inc ~by:2 b;
  (* Same key -> same cell, regardless of which handle updated it. *)
  Alcotest.(check int) "shared cell" 3 (Registry.counter_value a);
  Alcotest.(check int) "shared cell (b)" 3 (Registry.counter_value b)

let registry_labels_canonicalised () =
  let r = Registry.create () in
  let a = Registry.counter r ~labels:[ ("x", "1"); ("y", "2") ] "m" in
  let b = Registry.counter r ~labels:[ ("y", "2"); ("x", "1") ] "m" in
  let other = Registry.counter r ~labels:[ ("x", "9") ] "m" in
  Registry.inc a;
  Alcotest.(check int) "label order irrelevant" 1 (Registry.counter_value b);
  Alcotest.(check int) "distinct labels distinct" 0 (Registry.counter_value other)

let registry_kind_mismatch_raises () =
  let r = Registry.create () in
  ignore (Registry.counter r "m");
  Alcotest.(check bool) "gauge over counter raises" true
    (try
       ignore (Registry.gauge r "m");
       false
     with Invalid_argument _ -> true)

let registry_invalid_name_raises () =
  let r = Registry.create () in
  Alcotest.(check bool) "bad name raises" true
    (try
       ignore (Registry.counter r "9bad name");
       false
     with Invalid_argument _ -> true)

let registry_gauge_set_max () =
  let r = Registry.create () in
  let g = Registry.gauge r "hwm" in
  Registry.set_max g 5.;
  Registry.set_max g 3.;
  check_float "keeps max" 5. (Registry.gauge_value g);
  Registry.set_max g 7.;
  check_float "raises to new max" 7. (Registry.gauge_value g);
  let acc = Registry.gauge r "acc" in
  Registry.add acc 1.5;
  Registry.add acc 2.5;
  check_float "add accumulates" 4. (Registry.gauge_value acc)

let registry_histogram_quantiles () =
  let r = Registry.create () in
  let h = Registry.histogram r ~lo:0. ~hi:100. ~bins:20 "lat" in
  for i = 1 to 1000 do
    Registry.observe h (float_of_int (i mod 100))
  done;
  Alcotest.(check int) "count" 1000 (Registry.observations h);
  Alcotest.(check (float 5.)) "p50 near 50" 50. (Registry.p50 h);
  Alcotest.(check (float 5.)) "p99 near 99" 99. (Registry.p99 h)

let registry_json_roundtrip () =
  let r = Registry.create () in
  Registry.inc (Registry.counter r ~help:"hits" "hits_total");
  Registry.set (Registry.gauge r "level") 2.5;
  Registry.observe (Registry.histogram r ~lo:0. ~hi:1. ~bins:4 "h") 0.3;
  let s = Json.to_string (Registry.to_json r) in
  match Json.parse s with
  | Error e -> Alcotest.failf "registry json does not parse: %s" e
  | Ok (Json.List metrics) ->
      Alcotest.(check int) "three metrics" 3 (List.length metrics)
  | Ok _ -> Alcotest.fail "expected a list"

let registry_prometheus_text () =
  let r = Registry.create () in
  Registry.inc (Registry.counter r ~help:"total hits" "hits_total");
  Registry.observe (Registry.histogram r ~lo:0. ~hi:1. ~bins:2 "lat") 0.3;
  let text = Registry.to_prometheus r in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "contains %S" needle)
        true
        (Astring_like.contains text needle))
    [ "# HELP hits_total total hits"; "# TYPE hits_total counter";
      "hits_total 1"; "# TYPE lat histogram"; "lat_bucket"; "le=\"+Inf\"";
      "lat_count 1" ]

(* ------------------------------------------------------------------ *)
(* Registry / probe merging *)

let registry_merge_counters_sum () =
  let a = Registry.create () and b = Registry.create () in
  Registry.inc ~by:3 (Registry.counter a ~help:"hits" "c_total");
  Registry.inc ~by:4 (Registry.counter b "c_total");
  Registry.inc ~by:5 (Registry.counter b ~labels:[ ("k", "v") ] "c_total");
  Registry.inc (Registry.counter b "only_in_b");
  Registry.merge ~into:a b;
  Alcotest.(check int) "counters sum" 7
    (Registry.counter_value (Registry.counter a "c_total"));
  Alcotest.(check int) "labelled series separate" 5
    (Registry.counter_value (Registry.counter a ~labels:[ ("k", "v") ] "c_total"));
  Alcotest.(check int) "missing series created" 1
    (Registry.counter_value (Registry.counter a "only_in_b"))

let registry_merge_gauge_rules () =
  let fresh v =
    let r = Registry.create () in
    Registry.set (Registry.gauge r "g") v;
    r
  in
  let last_write = fresh 1.5 in
  Registry.merge ~into:last_write (fresh 0.5);
  check_float "default is last-write" 0.5
    (Registry.gauge_value (Registry.gauge last_write "g"));
  let maxed = fresh 1.5 in
  Registry.merge ~gauge_rule:(fun ~name:_ ~labels:_ -> `Max) ~into:maxed (fresh 0.5);
  check_float "max keeps larger" 1.5
    (Registry.gauge_value (Registry.gauge maxed "g"));
  let summed = fresh 1.5 in
  Registry.merge ~gauge_rule:(fun ~name:_ ~labels:_ -> `Sum) ~into:summed (fresh 0.5);
  check_float "sum accumulates" 2.
    (Registry.gauge_value (Registry.gauge summed "g"))

let registry_merge_histograms_combine () =
  let observe_all h vs = List.iter (Registry.observe h) vs in
  let xs = [ 1.; 3.; 5.; 7.; 9.; 11. ] and ys = [ 2.; 4.; 6.; 8.; 40. ] in
  let a = Registry.create () and b = Registry.create () in
  let ha = Registry.histogram a ~lo:0. ~hi:20. ~bins:10 "lat" in
  let hb = Registry.histogram b ~lo:0. ~hi:20. ~bins:10 "lat" in
  observe_all ha xs;
  observe_all hb ys;
  Registry.merge ~into:a b;
  (* Reference: every observation into one histogram, in one stream. *)
  let all = Registry.create () in
  let href = Registry.histogram all ~lo:0. ~hi:20. ~bins:10 "lat" in
  observe_all href (xs @ ys);
  Alcotest.(check int) "count" (Registry.observations href)
    (Registry.observations ha);
  (* Compare the exposed JSON fields: moments and buckets must match the
     single-stream reference exactly (Welford merge is exact on these
     inputs); p50/p99 only to bucket resolution. *)
  let payload r =
    match Registry.to_json r with
    | Json.List [ Json.Obj fields ] -> fields
    | _ -> Alcotest.fail "unexpected registry json shape"
  in
  let merged = payload a and reference = payload all in
  List.iter
    (fun key ->
      Alcotest.(check string)
        (key ^ " matches single-stream")
        (Json.to_string (List.assoc key reference))
        (Json.to_string (List.assoc key merged)))
    [ "count"; "min"; "max"; "buckets" ];
  let approx key tol =
    match (List.assoc key merged, List.assoc key reference) with
    | Json.Float m, Json.Float r -> Alcotest.(check (float tol)) key r m
    | _ -> Alcotest.failf "%s is not a float" key
  in
  approx "sum" 1e-9;
  approx "mean" 1e-9;
  approx "p50" 2.;
  (* one bin width *)
  approx "p99" 40.
(* p99 sits in the overflow bucket; the replay clamps it to [hi]. *)

let registry_merge_layout_mismatch_raises () =
  let a = Registry.create () and b = Registry.create () in
  ignore (Registry.histogram a ~lo:0. ~hi:10. ~bins:5 "h");
  Registry.observe (Registry.histogram b ~lo:0. ~hi:20. ~bins:5 "h") 1.;
  Alcotest.(check bool) "layout mismatch raises" true
    (try
       Registry.merge ~into:a b;
       false
     with Invalid_argument _ -> true)

let probe_merge_report_validates () =
  let main = Probe.create () and worker = Probe.create () in
  Probe.note_run main ~label:"a" ~sim_s:10. ~wall_s:0.5 ~events:1000
    ~event_queue_hwm:42 ~gateway_queue_hwm:7 ~arrivals:900 ~drops:3
    ~gc:
      {
        Perf.minor_words = 10_000.;
        promoted_words = 100.;
        major_collections = 1;
      }
    ();
  Probe.note_run worker ~label:"b" ~sim_s:10. ~wall_s:0.25 ~events:500
    ~event_queue_hwm:99 ~gateway_queue_hwm:5 ~arrivals:450 ~drops:1
    ~gc:
      {
        Perf.minor_words = 5_000.;
        promoted_words = 50.;
        major_collections = 0;
      }
    ();
  Perf.add_s worker.Probe.phases "run" 0.25;
  Probe.merge ~into:main worker;
  Alcotest.(check int) "runs sum" 2 (Probe.runs_total main);
  Alcotest.(check int) "events sum" 1500 (Probe.events_total main);
  let gauge name =
    Registry.gauge_value (Registry.gauge main.Probe.registry name)
  in
  check_float "hwm is max" 99. (gauge Probe.m_eq_hwm);
  check_float "sim seconds sum" 20. (gauge Probe.m_sim_seconds);
  check_float "wall seconds sum" 0.75 (gauge Probe.m_run_wall);
  check_float "phases accumulate" 0.25 (Perf.duration_s main.Probe.phases "run");
  check_float "minor words sum" 15_000. (gauge Probe.m_minor_words);
  check_float "words/event recomputed after merge" 10.
    (gauge Probe.m_words_per_event);
  match Report.validate (Report.to_json (Report.of_probe ~label:"merged" main)) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "merged report invalid: %s" e

(* ------------------------------------------------------------------ *)
(* Event bus *)

let sample_events =
  [
    Event_bus.Packet
      {
        time = 1.25;
        kind = Event_bus.Arrival;
        link = "bottleneck";
        flow = 3;
        seq = Some 17;
        size_bytes = 1000;
        uid = 42;
      };
    Event_bus.Packet
      {
        time = 1.5;
        kind = Event_bus.Drop;
        link = "bottleneck";
        flow = 4;
        seq = None;
        size_bytes = 40;
        uid = 43;
      };
    Event_bus.Tcp { time = 2.; kind = Event_bus.Timeout; flow = 1; cwnd = 1. };
    Event_bus.Queue
      {
        time = 3.;
        kind = Event_bus.Early_drop;
        queue = "gateway";
        flow = 2;
        avg = 7.5;
      };
    Event_bus.Custom { time = 4.; name = "phase_mark"; value = 1. };
  ]

let bus_pub_sub_order () =
  let bus = Event_bus.create () in
  Alcotest.(check bool) "no subscribers" false (Event_bus.has_subscribers bus);
  let log = ref [] in
  let _s1 = Event_bus.subscribe bus (fun _ -> log := "a" :: !log) in
  let s2 = Event_bus.subscribe bus (fun _ -> log := "b" :: !log) in
  Alcotest.(check bool) "has subscribers" true (Event_bus.has_subscribers bus);
  Event_bus.publish bus (List.hd sample_events);
  Alcotest.(check (list string)) "subscription order" [ "a"; "b" ] (List.rev !log);
  Event_bus.unsubscribe bus s2;
  Event_bus.unsubscribe bus s2 (* no-op *);
  Event_bus.publish bus (List.hd sample_events);
  Alcotest.(check (list string)) "after unsubscribe" [ "a"; "b"; "a" ] (List.rev !log);
  Alcotest.(check int) "published counts everything" 2 (Event_bus.published bus)

let bus_published_without_subscribers () =
  let bus = Event_bus.create () in
  List.iter (Event_bus.publish bus) sample_events;
  Alcotest.(check int) "counter still bumps" (List.length sample_events)
    (Event_bus.published bus)

let bus_ndjson_roundtrip () =
  List.iter
    (fun e ->
      let line = Event_bus.to_ndjson e in
      Alcotest.(check bool) "one line" false (String.contains line '\n');
      match Event_bus.of_ndjson_line line with
      | Ok e' -> Alcotest.(check bool) "round-trips" true (e = e')
      | Error msg -> Alcotest.failf "parse failed on %s: %s" line msg)
    sample_events

let bus_ndjson_event_field_first () =
  let line = Event_bus.to_ndjson (List.hd sample_events) in
  Alcotest.(check string) "discriminator leads" "{\"event\":\"packet\""
    (String.sub line 0 17)

let bus_of_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Event_bus.of_ndjson_line s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ "not json"; "{}"; "{\"event\":\"nope\",\"time\":0}"; "[1,2]" ]

let event_gen =
  let open QCheck.Gen in
  let time = map (fun i -> float_of_int i /. 16.) (int_bound 100_000) in
  let pos = int_bound 10_000 in
  let name = oneofl [ "a"; "gateway"; "bottleneck"; "x_1" ] in
  frequency
    [
      ( 4,
        map
          (fun ((time, kind, link), (flow, seq, size_bytes, uid)) ->
            Event_bus.Packet { time; kind; link; flow; seq; size_bytes; uid })
          (pair
             (triple time
                (oneofl [ Event_bus.Arrival; Event_bus.Drop; Event_bus.Depart ])
                name)
             (quad pos (option pos) pos pos)) );
      ( 2,
        map
          (fun (time, kind, flow, cwnd) ->
            Event_bus.Tcp { time; kind; flow; cwnd = float_of_int cwnd /. 8. })
          (quad time
             (oneofl
                [
                  Event_bus.Timeout; Event_bus.Fast_retransmit;
                  Event_bus.Cwnd_cut; Event_bus.Ecn_reaction;
                ])
             pos pos) );
      ( 2,
        map
          (fun (time, kind, queue, flow, avg) ->
            Event_bus.Queue { time; kind; queue; flow; avg = float_of_int avg /. 4. })
          (tup5 time
             (oneofl [ Event_bus.Ecn_mark; Event_bus.Early_drop; Event_bus.Forced_drop ])
             name pos pos) );
      ( 1,
        map
          (fun (time, name, v) ->
            Event_bus.Custom { time; name; value = float_of_int v /. 2. })
          (triple time name pos) );
    ]

let bus_roundtrip_property =
  QCheck.Test.make ~name:"ndjson round-trip on random events" ~count:500
    (QCheck.make event_gen)
    (fun e -> Event_bus.of_ndjson_line (Event_bus.to_ndjson e) = Ok e)

(* Events of every shape and kind with the corners the direct renderer
   must reproduce byte for byte: extreme and negative ints, [seq = None],
   names with quotes, backslashes and control bytes, and floats printed
   in fixed, exponent and "%.17g" form, 0., -0. and integral values. *)
let render_event_gen =
  let open QCheck2.Gen in
  let int_ =
    oneof
      [
        int;
        int_range (-1000) 1000;
        oneofl [ min_int; max_int; min_int + 1; 0; -1; 9; 10; 99; 100; -10 ];
      ]
  in
  let float_ =
    oneof
      [
        (* timestamps: whole nanoseconds, fixed form *)
        map Record.time_of_tick (int_range 0 999_999_999_999);
        (* below 1e-4 s: exponent form *)
        map Record.time_of_tick (int_range 0 99_999);
        (* any finite double, most of which need "%.17g" *)
        map
          (fun b ->
            let f = Int64.float_of_bits b in
            if Float.is_finite f then f else Float.of_int (Int64.to_int b))
          ui64;
        (* integral values, both signs *)
        map (fun i -> Float.of_int i) (int_range (-1_000_000) 1_000_000);
        oneofl
          [
            0.; -0.; 1.; 5.; 1e-4; 1e-5; 1e3; 1e11; 1e15; 1e21; 0.1; 1. /. 3.;
            0.30000000000000004; -2.5; 123456789012.5; max_float; min_float;
          ];
      ]
  in
  let name =
    oneof
      [
        oneofl
          [ ""; "bottleneck"; "q\"uote"; "back\\slash"; "tab\tnl\ncr\r";
            "\x00\x01\x1f"; "\x7f\xc3\xa9" ];
        string_size ~gen:char (int_bound 12);
      ]
  in
  let seq = oneof [ return None; map Option.some int_ ] in
  frequency
    [
      ( 4,
        map
          (fun ((time, kind, link), (flow, seq, size_bytes, uid)) ->
            Event_bus.Packet { time; kind; link; flow; seq; size_bytes; uid })
          (pair
             (triple float_
                (oneofl [ Event_bus.Arrival; Event_bus.Drop; Event_bus.Depart ])
                name)
             (quad int_ seq int_ int_)) );
      ( 2,
        map
          (fun (time, kind, flow, cwnd) -> Event_bus.Tcp { time; kind; flow; cwnd })
          (quad float_
             (oneofl
                [
                  Event_bus.Timeout; Event_bus.Fast_retransmit;
                  Event_bus.Cwnd_cut; Event_bus.Ecn_reaction;
                ])
             int_ float_) );
      ( 2,
        map
          (fun (time, kind, queue, flow, avg) ->
            Event_bus.Queue { time; kind; queue; flow; avg })
          (tup5 float_
             (oneofl
                [ Event_bus.Ecn_mark; Event_bus.Early_drop; Event_bus.Forced_drop ])
             name int_ float_) );
      ( 1,
        map
          (fun (time, name, value) -> Event_bus.Custom { time; name; value })
          (triple float_ name float_) );
    ]

(* The renderer writes what the tree encoder writes, through [to_ndjson]
   and through a writer whose name caches and line are already warm. *)
let bus_renderer_matches_tree_property =
  QCheck2.Test.make ~name:"renderer line = tree encoding" ~count:2000
    ~print:(fun (warm, e) ->
      Json.to_string (Event_bus.to_json warm)
      ^ " then " ^ Json.to_string (Event_bus.to_json e))
    (QCheck2.Gen.pair render_event_gen render_event_gen)
    (fun (warm, e) ->
      let tree = Json.to_string (Event_bus.to_json e) in
      let path = Filename.temp_file "burstsim_render" ".ndjson" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Out_channel.with_open_bin path (fun oc ->
              let write = Event_bus.ndjson_writer oc in
              write warm;
              write e);
          let written = In_channel.with_open_bin path In_channel.input_all in
          Event_bus.to_ndjson e = tree
          && written
             = Json.to_string (Event_bus.to_json warm) ^ "\n" ^ tree ^ "\n"))

(* ------------------------------------------------------------------ *)
(* Perf phases *)

let perf_phases_accumulate () =
  let p = Perf.phases () in
  check_float "untimed is 0" 0. (Perf.duration_s p "setup");
  Perf.add_s p "setup" 0.5;
  Perf.add_s p "run" 1.;
  Perf.add_s p "setup" 0.25;
  check_float "accumulates" 0.75 (Perf.duration_s p "setup");
  Alcotest.(check (list string)) "first-use order" [ "setup"; "run" ]
    (List.map fst (Perf.durations_s p));
  check_float "total" 1.75 (Perf.total_s p);
  let timed = Perf.time p "extra" (fun () -> 42) in
  Alcotest.(check int) "time returns result" 42 timed;
  Alcotest.(check bool) "timed phase recorded" true
    (List.mem_assoc "extra" (Perf.durations_s p))

(* ------------------------------------------------------------------ *)
(* Progress *)

let with_buffer_channel f =
  let path = Filename.temp_file "burstsim_progress" ".txt" in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      f oc;
      close_out oc;
      let ic = open_in path in
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      close_in ic;
      s)

let progress_lines () =
  let clock = ref 0. in
  let now () = !clock in
  let text =
    with_buffer_channel (fun oc ->
        let p = Progress.create ~out:oc ~now ~total:4 () in
        clock := 10.;
        Progress.step p ~events:10_000 "Reno n=2";
        Alcotest.(check int) "one completed" 1 (Progress.completed p);
        clock := 20.;
        Progress.step p "Reno n=4";
        Progress.finish p)
  in
  Alcotest.(check bool) "shows counter" true (Astring_like.contains text "1/4");
  Alcotest.(check bool) "shows label" true (Astring_like.contains text "Reno n=2");
  (* After 1 of 4 runs in 10 s, the remaining 3 extrapolate to 30 s. *)
  Alcotest.(check bool) "eta extrapolates" true (Astring_like.contains text "30s");
  Alcotest.(check bool) "rate when events given" true
    (Astring_like.contains text "ev/s")

let progress_formatting () =
  Alcotest.(check string) "seconds" "42s" (Progress.format_duration 42.);
  Alcotest.(check string) "minutes" "3m09s" (Progress.format_duration 189.);
  Alcotest.(check string) "hours" "2h05m" (Progress.format_duration 7500.);
  Alcotest.(check string) "plain rate" "850 ev/s" (Progress.format_rate 850.);
  Alcotest.(check string) "kilo rate" "1.2k ev/s" (Progress.format_rate 1230.);
  Alcotest.(check string) "mega rate" "3.10M ev/s" (Progress.format_rate 3.1e6)

(* ------------------------------------------------------------------ *)
(* Json encoder against the Printf rendering it replaced *)

(* The encoder before its printf-free fast paths, kept as the oracle:
   floats by two sprintf calls and a float_of_string, strings escaped one
   byte at a time, ints through string_of_int. *)
let reference_float f =
  let s = Printf.sprintf "%.17g" f in
  let shorter = Printf.sprintf "%.12g" f in
  let s = if float_of_string shorter = f then shorter else s in
  if String.contains s '.' || String.contains s 'e' || String.contains s 'E'
  then s
  else s ^ ".0"

let reference_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let float_gen =
  let open QCheck.Gen in
  let decimal m j = float_of_string (Printf.sprintf "%de%d" m j) in
  let power k = decimal 1 k in
  frequency
    [
      (* finite bit patterns of both signs: an all-ones exponent is
         cleared to 0x7fe *)
      ( 3,
        map
          (fun b ->
            let f = Int64.float_of_bits b in
            if Float.is_finite f then f
            else Int64.float_of_bits (Int64.logand b 0xffef_ffff_ffff_ffffL))
          ui64 );
      (* recorder timestamps, below 1 ms and below 1000 s *)
      (2, map Record.time_of_tick (int_bound 999_999));
      (3, map Record.time_of_tick (int_range 0 999_999_999_999));
      (* decimals m * 10^j of 1 to 18 digits *)
      ( 3,
        map3
          (fun m j neg -> if neg then -.decimal m j else decimal m j)
          (oneof
             [
               int_bound 9;
               int_bound 99_999;
               int_bound 999_999_999_999;
               int_bound 999_999_999_999_999_999;
             ])
          (int_range (-20) 20) bool );
      (* 10^k and its neighbours, where the decimal exponent changes *)
      ( 2,
        map2
          (fun k step -> step (power k))
          (int_range (-6) 13)
          (oneofl [ Float.pred; Fun.id; Float.succ ]) );
      (* subnormals (exponent field 0), signed zeros and the extremes *)
      (1, map (fun b -> Int64.float_of_bits (Int64.logand b 0x800f_ffff_ffff_ffffL)) ui64);
      ( 1,
        oneofl
          [ 0.; -0.; max_float; -.max_float; min_float; -.min_float; 4.9e-324 ]
      );
    ]

let json_float_matches_reference =
  QCheck.Test.make ~name:"float rendering equals the printf oracle"
    ~count:20_000
    (QCheck.make ~print:(Printf.sprintf "%h") float_gen)
    (fun f ->
      let s = Json.to_string (Json.Float f) in
      s = reference_float f
      &&
      match Json.parse s with
      | Ok (Json.Float g) -> Int64.equal (Int64.bits_of_float g) (Int64.bits_of_float f)
      | _ -> false)

let json_string_matches_reference =
  let gen =
    QCheck.Gen.(
      string_size
        ~gen:
          (frequency
             [
               (3, char);
               (1, oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '\x00'; '\x1f'; '\x7f'; '\xff' ]);
             ])
        (int_bound 40))
  in
  QCheck.Test.make ~name:"string escaping equals the byte-wise oracle"
    ~count:5_000
    (QCheck.make ~print:(Printf.sprintf "%S") gen)
    (fun s ->
      let j = Json.to_string (Json.String s) in
      j = reference_string s && Json.parse j = Ok (Json.String s))

let json_int_matches_reference =
  let gen =
    QCheck.Gen.(
      frequency
        [
          (4, int);
          (2, map (fun i -> -i) small_nat);
          (1, oneofl [ min_int; max_int; 0; -1; 9; 10; -10 ]);
        ])
  in
  QCheck.Test.make ~name:"int rendering equals string_of_int" ~count:5_000
    (QCheck.make ~print:string_of_int gen)
    (fun i ->
      let j = Json.to_string (Json.Int i) in
      j = string_of_int i && Json.parse j = Ok (Json.Int i))

(* [ndjson_writer] renders every line in one reused buffer: a short line
   after a long one, and two writers taking turns, must still each write
   exactly [to_ndjson e ^ "\n"] per event. *)
let bus_ndjson_writer_reuses_buffer () =
  let long =
    Event_bus.Custom { time = 123.456; name = String.make 700 'x'; value = 0.1 }
  in
  let short = List.hd sample_events in
  let expect es =
    String.concat "" (List.map (fun e -> Event_bus.to_ndjson e ^ "\n") es)
  in
  let written =
    with_buffer_channel (fun oc ->
        List.iter (Event_bus.ndjson_writer oc) [ long; short ])
  in
  Alcotest.(check string) "long then short" (expect [ long; short ]) written;
  let events = [ long; short; short; long ] @ sample_events in
  let second = ref "" in
  let first =
    with_buffer_channel (fun oc1 ->
        second :=
          with_buffer_channel (fun oc2 ->
              let bus = Event_bus.create () in
              ignore (Event_bus.subscribe bus (Event_bus.ndjson_writer oc1));
              ignore (Event_bus.subscribe bus (Event_bus.ndjson_writer oc2));
              List.iter (Event_bus.publish bus) events))
  in
  Alcotest.(check string) "first of two writers" (expect events) first;
  Alcotest.(check string) "second of two writers" (expect events) !second

(* ------------------------------------------------------------------ *)
(* Report *)

let report_of_probe_validates () =
  let probe = Probe.create () in
  Probe.note_run probe ~label:"t" ~sim_s:10. ~wall_s:0.5 ~events:1000
    ~event_queue_hwm:42 ~gateway_queue_hwm:7 ~arrivals:900 ~drops:3
    ~gc:
      {
        Perf.minor_words = 4_000.;
        promoted_words = 40.;
        major_collections = 0;
      }
    ();
  let report = Report.of_probe ~label:"test" probe in
  Alcotest.(check int) "runs" 1 report.Report.runs;
  Alcotest.(check int) "events" 1000 report.Report.events_fired;
  Alcotest.(check int) "eq hwm" 42 report.Report.event_queue_hwm;
  check_float "rate" 2000. report.Report.events_per_sec;
  let json = Report.to_json report in
  (match Report.validate json with
  | Ok () -> ()
  | Error e -> Alcotest.failf "fresh report invalid: %s" e);
  (* And it survives a print/parse cycle. *)
  match Json.parse (Json.to_string json) with
  | Ok j -> (
      match Report.validate j with
      | Ok () -> ()
      | Error e -> Alcotest.failf "parsed report invalid: %s" e)
  | Error e -> Alcotest.failf "report does not parse: %s" e

let report_validate_rejects () =
  (match Report.validate (Json.String "nope") with
  | Ok () -> Alcotest.fail "accepted a non-object"
  | Error _ -> ());
  let probe = Probe.create () in
  let json = Report.to_json (Report.of_probe probe) in
  match json with
  | Json.Obj fields ->
      List.iter
        (fun required ->
          let mutilated = Json.Obj (List.remove_assoc required fields) in
          match Report.validate mutilated with
          | Ok () -> Alcotest.failf "accepted report without %s" required
          | Error msg ->
              Alcotest.(check bool) "error names the field" true
                (Astring_like.contains msg required))
        Report.required_fields
  | _ -> Alcotest.fail "report is not an object"

(* ------------------------------------------------------------------ *)
(* Gate documents (BENCH_*.json) *)

let gate ?spread ?skip name op bound measured =
  { Report.name; measured; op; bound; spread; skip }

let spread ?(reps = 9) q1 median q3 = { Report.reps; q1; median; q3 }

(* Written and parsed back, as report-check sees a bench file. *)
let gates_doc gates =
  let doc =
    Json.Obj
      [
        ("scenario", Json.String "Reno");
        ("gates", Json.List (List.map Report.gate_to_json gates));
      ]
  in
  match Json.parse (Json.to_string doc) with
  | Ok j -> j
  | Error e -> Alcotest.failf "gate document does not parse: %s" e

let expect_gates_ok what doc =
  match Report.validate_gates doc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "rejected %s: %s" what e

let expect_gates_error what doc needle =
  match Report.validate_gates doc with
  | Ok () -> Alcotest.failf "accepted %s" what
  | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s error mentions %s (got: %s)" what needle msg)
        true
        (Astring_like.contains msg needle)

(* One fixture per BENCH file, shaped like what the bench writes. *)
let alloc_gates =
  [
    gate "Reno.minor_words_per_event" Report.Le 6.0 (Some 5.8);
    gate "Reno.events_per_sec" Report.Ge 2.06e6 None
      ~skip:"--fast: runs too short to time";
    gate "Reno/RED.minor_words_per_event" Report.Le 8.0 (Some 6.2);
  ]

let flows_gates =
  [
    gate "N=1000.bytes_per_flow" Report.Le 512. (Some 496.);
    gate "N=1000.leak_free" Report.Eq 1. (Some 1.);
    gate "N=1000.flow_table_growths" Report.Eq 0. (Some 0.);
    gate "N=1000.minor_words_per_event" Report.Le 8. (Some 4.);
    gate "N=1000.throughput_ratio.lo" Report.Ge 0.8 (Some 1.0);
    gate "N=1000.throughput_ratio.hi" Report.Le 1.05 (Some 1.0);
    gate "N=100000.events_per_sec" Report.Ge 3e5 (Some 9e5)
      ~spread:(spread ~reps:1 9e5 9e5 9e5);
  ]

(* The N = 10^6 smoke row commits only to bytes/flow and leak-freedom. *)
let flows_smoke_gates =
  [
    gate "N=1000000.bytes_per_flow" Report.Le 512. (Some 496.);
    gate "N=1000000.leak_free" Report.Eq 1. (Some 1.);
  ]

let parallel_gates =
  [
    gate "deterministic" Report.Eq 1. (Some 1.);
    gate "sharded_deterministic" Report.Eq 1. (Some 1.);
    gate "single_run_speedup" Report.Ge 3. None
      ~skip:"2 domain(s) available, scaling needs 4";
  ]

let telemetry_gates =
  [
    gate "probe_overhead_pct" Report.Le 15. (Some 3.2)
      ~spread:(spread 1.0 3.2 5.0);
    (* q3 is over budget, but q1 is not: one noisy rep cannot fail it. *)
    gate "recorder_overhead_pct" Report.Le 8. (Some 4.2)
      ~spread:(spread 2.0 4.2 9.5);
    gate "recorder_minor_words_per_event_delta" Report.Le 0.05 (Some 0.036);
    gate "recorder_records" Report.Ge 1. (Some 30180.);
    gate "trace_ndjson_ns_per_event" Report.Le 1500. (Some 1122.)
      ~spread:(spread 1070. 1122. 1180.);
  ]

let burst_gates =
  [
    gate "burst_minor_words_per_event_delta" Report.Le 0.05 (Some (-0.004));
    gate "cov_abs_err" Report.Le 1e-6 (Some 0.);
    gate "red_sweep.stable.oscillating" Report.Eq 0. (Some 0.);
    gate "red_sweep.unstable.oscillating" Report.Eq 1. (Some 1.);
  ]

let hybrid_gates =
  [
    gate "N=1000.throughput_ratio.lo" Report.Ge 0.8 (Some 1.19);
    gate "N=1000.throughput_ratio.hi" Report.Le 1.25 (Some 1.19);
    gate "N=1000.loss_abs_err" Report.Le 0.025 (Some 0.017);
    gate "N=1000.event_ratio" Report.Ge 1. (Some 17.);
    gate "converged.leak_free" Report.Eq 1. (Some 1.);
    gate "converged.work_ratio" Report.Ge 10. None
      ~skip:"--fast: no pure-packet baseline at this horizon";
    gate "stability_sweep.unstable.oscillating" Report.Eq 1. (Some 1.);
  ]

let gates_accept gates () = expect_gates_ok "a passing document" (gates_doc gates)

(* Doctor one gate at a time on the written JSON, as a hand edit would:
   move a measurement past its bound, or strip a skipped gate's reason.
   Every edit must be rejected, naming the gate. *)
let gates_reject gates () =
  let doctored i =
    gates_doc
      (List.mapi
         (fun j g ->
           if i <> j then g
           else
             match g.Report.measured with
             | None -> { g with skip = None }
             | Some _ ->
                 let bad =
                   match g.Report.op with
                   | Report.Le | Report.Eq -> g.Report.bound +. 1.
                   | Report.Ge -> g.Report.bound -. 1.
                 in
                 { g with measured = Some bad })
         gates)
  in
  List.iteri
    (fun i g ->
      expect_gates_error ("doctored " ^ g.Report.name) (doctored i) g.Report.name)
    gates

let gates_reject_malformed () =
  let ok = gate "a" Report.Le 1. (Some 0.) in
  expect_gates_error "no gates list" (Json.Obj [ ("rows", Json.List []) ])
    "no gates list";
  expect_gates_error "an empty gates list" (gates_doc []) "gates is empty";
  expect_gates_error "duplicate names" (gates_doc [ ok; ok ]) "duplicate gate a";
  expect_gates_error "a null measurement with no skip"
    (gates_doc [ gate "b" Report.Ge 1. None ])
    "b: measured is null with no skip reason";
  expect_gates_error "an empty skip reason"
    (gates_doc [ gate "b" Report.Ge 1. None ~skip:"" ])
    "b: measured is null";
  expect_gates_error "an unknown op"
    (Json.Obj
       [
         ( "gates",
           Json.List
             [
               Json.Obj
                 [
                   ("name", Json.String "c");
                   ("measured", Json.Float 1.);
                   ("op", Json.String "lt");
                   ("bound", Json.Float 2.);
                 ];
             ] );
       ])
    "c: op is not le, ge or eq"

let gates_spread_rule () =
  let verdict_is what expected g =
    Alcotest.(check bool) what expected
      (match Report.verdict g with Report.Fail _ -> false | _ -> true)
  in
  (* le: judged on q1, so a median over the bound still passes. *)
  verdict_is "le, q1 at bound" true
    (gate "t" Report.Le 8. (Some 9.) ~spread:(spread 8. 9. 12.));
  verdict_is "le, q1 over bound" false
    (gate "t" Report.Le 8. (Some 9.) ~spread:(spread 8.5 9. 12.));
  (* ge: judged on q3. *)
  verdict_is "ge, q3 at bound" true
    (gate "t" Report.Ge 3. (Some 2.) ~spread:(spread 1. 2. 3.));
  verdict_is "ge, q3 under bound" false
    (gate "t" Report.Ge 3. (Some 2.) ~spread:(spread 1. 2. 2.9));
  (* Without a spread the measurement itself is compared. *)
  verdict_is "le, no spread" false (gate "t" Report.Le 8. (Some 9.));
  verdict_is "measured off the median" false
    (gate "t" Report.Le 8. (Some 1.) ~spread:(spread 1. 2. 3.))

let gates_verdict_property =
  let gen =
    let open QCheck.Gen in
    let value = map (fun k -> float_of_int k /. 4.) (int_range (-8) 8) in
    let one i =
      let* op = oneofl [ Report.Le; Report.Ge; Report.Eq ] in
      let* bound = value in
      let* measured = opt ~ratio:0.8 value in
      let* skip = opt (oneofl [ ""; "--fast" ]) in
      let* spread =
        match measured with
        | None -> return None
        | Some m ->
            let* lo = value and* hi = value in
            let* keep_median = bool in
            let median = if keep_median then m else m +. 0.5 in
            opt
              (return
                 {
                   Report.reps = 5;
                   q1 = Float.min median lo;
                   median;
                   q3 = Float.max median hi;
                 })
      in
      return (gate (Printf.sprintf "g%d" i) op bound measured ?spread ?skip)
    in
    let* n = int_range 1 6 in
    flatten_l (List.init n one)
  in
  QCheck.Test.make ~name:"validate_gates accepts iff every verdict passes"
    ~count:500 (QCheck.make gen) (fun gates ->
      let all_pass =
        List.for_all
          (fun g ->
            match Report.verdict g with Report.Fail _ -> false | _ -> true)
          gates
      in
      Result.is_ok (Report.validate_gates (gates_doc gates)) = all_pass)

(* ------------------------------------------------------------------ *)
(* Probe + Run integration *)

let small_config clients =
  {
    (Burstcore.Config.with_clients Burstcore.Config.default clients) with
    Burstcore.Config.duration_s = 6.;
    warmup_s = 1.;
  }

let probe_instruments_a_run () =
  let probe = Probe.create () in
  ignore (Burstcore.Run.run ~probe (small_config 5) Burstcore.Scenario.reno);
  Alcotest.(check int) "one run" 1 (Probe.runs_total probe);
  Alcotest.(check bool) "events counted" true (Probe.events_total probe > 0);
  let phases = List.map fst (Perf.durations_s probe.Probe.phases) in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " phase timed") true (List.mem name phases))
    [ "setup"; "run"; "collect" ];
  let hwm =
    Registry.gauge_value (Registry.gauge probe.Probe.registry Probe.m_eq_hwm)
  in
  Alcotest.(check bool) "event-queue hwm positive" true (hwm > 0.);
  match Report.validate (Report.to_json (Report.of_probe probe)) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "run report invalid: %s" e

let probe_bus_sees_packet_and_tcp_events () =
  let probe = Probe.create () in
  let packets = ref 0 and tcp = ref 0 and queue = ref 0 and last_time = ref 0. in
  let monotone = ref true in
  ignore
    (Event_bus.subscribe probe.Probe.bus (fun e ->
         let t = Event_bus.time e in
         if t < !last_time then monotone := false;
         last_time := t;
         match e with
         | Event_bus.Packet _ -> incr packets
         | Event_bus.Tcp _ -> incr tcp
         | Event_bus.Queue _ -> incr queue
         | Event_bus.Custom _ -> ()));
  (* 20 clients against Table 1's 10-packet buffer forces loss events. *)
  ignore (Burstcore.Run.run ~probe (small_config 20) Burstcore.Scenario.reno);
  Alcotest.(check bool) "packet events flow" true (!packets > 0);
  Alcotest.(check bool) "congestion produces tcp events" true (!tcp > 0);
  Alcotest.(check bool) "drop-tail forced drops reach the bus" true (!queue > 0);
  Alcotest.(check bool) "timestamps non-decreasing" true !monotone;
  Alcotest.(check int) "published matches deliveries"
    (!packets + !tcp + !queue)
    (Event_bus.published probe.Probe.bus)

let probe_run_deterministic_under_telemetry () =
  let run probe = Burstcore.Run.run ?probe (small_config 5) Burstcore.Scenario.reno in
  let bare = run None and probed = run (Some (Probe.create ())) in
  Alcotest.(check int) "delivered unchanged" bare.Burstcore.Metrics.delivered
    probed.Burstcore.Metrics.delivered;
  check_float "loss unchanged" bare.Burstcore.Metrics.loss_pct
    probed.Burstcore.Metrics.loss_pct


(* ------------------------------------------------------------------ *)
(* Flight recorder *)

let rcfg ?(capacity = 16) ?(overflow = Recorder.Drop_oldest)
    ?(lifecycle = true) () =
  { Recorder.capacity; overflow; lifecycle }

(* tick = i so merged order equals write order; every other word is a
   distinct function of i so a shuffled or truncated read-back shows. *)
let fill lane n =
  for i = 0 to n - 1 do
    Recorder.record lane ~tick:i ~kind:(i mod 5) ~flow:(i mod 7) ~a:i
      ~b:(i * 3) ~c:(-i) ~sid:0 ~depth:(i mod 11)
  done

let check_fill_record i buf off =
  Alcotest.(check int) "tick" i buf.(off);
  Alcotest.(check int) "kind" (i mod 5) buf.(off + 1);
  Alcotest.(check int) "flow" (i mod 7) buf.(off + 2);
  Alcotest.(check int) "a" i buf.(off + 3);
  Alcotest.(check int) "b" (i * 3) buf.(off + 4);
  Alcotest.(check int) "c" (-i) buf.(off + 5);
  Alcotest.(check int) "depth" (i mod 11) buf.(off + 7)

let recorder_ring_drops_oldest () =
  let r = Recorder.create (rcfg ()) in
  let lane = Recorder.lane r 0 in
  fill lane 40;
  Alcotest.(check int) "recorded" 40 (Recorder.recorded lane);
  Alcotest.(check int) "retained" 16 (Recorder.retained lane);
  Alcotest.(check int) "dropped" 24 (Recorder.lane_dropped lane);
  Alcotest.(check int) "total_recorded" 40 (Recorder.total_recorded r);
  Alcotest.(check int) "total_dropped" 24 (Recorder.total_dropped r);
  (* The survivors are exactly the newest 16, in order. *)
  let next = ref 24 in
  Recorder.iter_lane lane (fun ~seq buf off ->
      Alcotest.(check int) "seq" !next seq;
      check_fill_record seq buf off;
      incr next);
  Alcotest.(check int) "iterated to the end" 40 !next

let recorder_capacity_rounds_up () =
  (* 100 rounds up to 128, and a tiny request still gets the 16 floor. *)
  let r = Recorder.create (rcfg ~capacity:100 ()) in
  let lane = Recorder.lane r 0 in
  fill lane 130;
  Alcotest.(check int) "retained = rounded capacity" 128
    (Recorder.retained lane);
  let r = Recorder.create (rcfg ~capacity:1 ()) in
  let lane = Recorder.lane r 0 in
  fill lane 20;
  Alcotest.(check int) "floor capacity" 16 (Recorder.retained lane)

let recorder_grow_keeps_everything () =
  let r = Recorder.create (rcfg ~overflow:Recorder.Grow ()) in
  let lane = Recorder.lane r 0 in
  fill lane 100;
  Alcotest.(check int) "retained" 100 (Recorder.retained lane);
  Alcotest.(check int) "dropped" 0 (Recorder.lane_dropped lane);
  let next = ref 0 in
  Recorder.iter_lane lane (fun ~seq buf off ->
      Alcotest.(check int) "seq" !next seq;
      check_fill_record seq buf off;
      incr next);
  Alcotest.(check int) "all records seen" 100 !next

let recorder_merges_lanes_by_tick_then_lane () =
  let r = Recorder.create (rcfg ~overflow:Recorder.Grow ()) in
  let l0 = Recorder.lane r 0 and l1 = Recorder.lane r 1 in
  let put lane tick =
    Recorder.record lane ~tick ~kind:0 ~flow:0 ~a:0 ~b:0 ~c:0 ~sid:0 ~depth:0
  in
  List.iter (put l0) [ 0; 10; 20 ];
  List.iter (put l1) [ 5; 10; 15 ];
  let got = ref [] in
  Recorder.iter_merged r (fun ~lane ~seq:_ buf off ->
      got := (lane, buf.(off)) :: !got);
  (* The tick-10 tie goes to the lower lane id. *)
  Alcotest.(check (list (pair int int)))
    "merge order"
    [ (0, 0); (1, 5); (0, 10); (1, 10); (1, 15); (0, 20) ]
    (List.rev !got)

let with_temp_file f =
  let path = Filename.temp_file "burstsim_rec" ".bin" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let recorder_segment_round_trip () =
  with_temp_file (fun path ->
      let oc = open_out_bin path in
      let r1 = Recorder.create ~label:"first seg" (rcfg ~overflow:Recorder.Grow ()) in
      let sid = Recorder.intern r1 "gateway" in
      Alcotest.(check int) "intern starts after the reserved id" 1 sid;
      Alcotest.(check int) "interning is idempotent" sid
        (Recorder.intern r1 "gateway");
      fill (Recorder.lane r1 0) 50;
      Recorder.write_segment oc r1;
      Alcotest.(check bool) "finished after write" true (Recorder.finished r1);
      (* A second segment appended to the same channel. *)
      let r2 = Recorder.create ~label:"second seg" (rcfg ()) in
      fill (Recorder.lane r2 0) 40;
      Recorder.write_segment oc r2;
      close_out oc;
      let ic = open_in_bin path in
      let segs = Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
          Recorder.read_segments ic)
      in
      match segs with
      | [ s1; s2 ] ->
          Alcotest.(check string) "label 1" "first seg" (Recorder.seg_label s1);
          Alcotest.(check string) "label 2" "second seg" (Recorder.seg_label s2);
          Alcotest.(check string) "intern survives" "gateway"
            (Recorder.seg_lookup s1 sid);
          let next = ref 0 in
          Recorder.iter_segment s1 (fun ~lane ~seq buf off ->
              Alcotest.(check int) "lane" 0 lane;
              Alcotest.(check int) "seq" !next seq;
              check_fill_record seq buf off;
              incr next);
          Alcotest.(check int) "segment 1 complete" 50 !next;
          (* Segment 2 kept only the ring's newest 16, seqs 24..39. *)
          (match Recorder.seg_lanes s2 with
          | [ l ] ->
              Alcotest.(check int) "ring total" 40 (Recorder.read_lane_total l);
              Alcotest.(check int) "ring dropped" 24
                (Recorder.read_lane_dropped l);
              Alcotest.(check int) "ring retained" 16
                (Recorder.read_lane_retained l)
          | ls -> Alcotest.failf "expected 1 lane, got %d" (List.length ls));
          let next = ref 24 in
          Recorder.iter_segment s2 (fun ~lane:_ ~seq buf off ->
              Alcotest.(check int) "ring seq" !next seq;
              check_fill_record seq buf off;
              incr next)
      | segs -> Alcotest.failf "expected 2 segments, got %d" (List.length segs))

let recorder_read_rejects_garbage () =
  with_temp_file (fun path ->
      let oc = open_out_bin path in
      output_string oc "NOTAFLIGHTRECORDING";
      close_out oc;
      let ic = open_in_bin path in
      Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
          Alcotest.(check bool) "bad magic fails" true
            (try
               ignore (Recorder.read_segments ic);
               false
             with Failure _ -> true)))

(* The segment bytes as a word-by-word writer lays them out: every
   integer through [Record.put64], each record's words in order. *)
let segment_by_words ~label ~interns ~lane ~first ~total ~dropped records =
  let b = Buffer.create 1024 in
  let w8 = Bytes.create 8 in
  let word v =
    Record.put64 w8 0 v;
    Buffer.add_bytes b w8
  in
  let str s =
    word (String.length s);
    Buffer.add_string b s
  in
  Buffer.add_string b Recorder.magic;
  str label;
  word (List.length interns);
  List.iter str interns;
  if records <> [] then begin
    word 1;
    word lane;
    word first;
    word (List.length records);
    List.iter (Array.iter word) records
  end;
  word 2;
  word lane;
  word total;
  word dropped;
  word 0;
  Buffer.contents b

(* Record [i] of the layout tests, with words a byte-swapped or truncated
   store would change: negative values and both ends of the int range. *)
let layout_record i =
  [|
    i; i mod 26; i - 7; (if i mod 3 = 0 then min_int else i * 1_000_003);
    (if i mod 4 = 0 then max_int else -i); Record.no_seq; i mod 2; -(i * i);
  |]

let record_layout lane r =
  Recorder.record lane ~tick:r.(0) ~kind:r.(1) ~flow:r.(2) ~a:r.(3) ~b:r.(4)
    ~c:r.(5) ~sid:r.(6) ~depth:r.(7)

(* Write 40 records into 16-record lanes, then compare the segment with
   the word-by-word layout and read it back: a grow lane crosses two
   buffer boundaries, a ring wraps and keeps records 24..39, the oldest
   of which sits mid-buffer. *)
let recorder_layout_round_trip ~overflow ~first () =
  let r =
    Recorder.create ~label:"layout" (rcfg ~capacity:16 ~overflow ())
  in
  let sid = Recorder.intern r "link \"x\"" in
  Alcotest.(check int) "sid" 1 sid;
  let lane = Recorder.lane r 0 in
  let all = List.init 40 layout_record in
  List.iter (record_layout lane) all;
  let kept = List.filteri (fun i _ -> i >= first) all in
  with_temp_file (fun path ->
      Out_channel.with_open_bin path (fun oc -> Recorder.write_segment oc r);
      let bytes = In_channel.with_open_bin path In_channel.input_all in
      Alcotest.(check string) "segment bytes = word-by-word layout"
        (segment_by_words ~label:"layout" ~interns:[ ""; "link \"x\"" ] ~lane:0
           ~first ~total:40 ~dropped:first kept)
        bytes;
      match In_channel.with_open_bin path Recorder.read_segments with
      | [ seg ] ->
          let got = ref [] in
          Recorder.iter_segment seg (fun ~lane ~seq buf off ->
              Alcotest.(check int) "lane" 0 lane;
              got := (seq, Array.sub buf off Record.words) :: !got);
          Alcotest.(check (list (pair int (array int))))
            "records read back"
            (List.mapi (fun i rc -> (first + i, rc)) kept)
            (List.rev !got)
      | segs -> Alcotest.failf "expected 1 segment, got %d" (List.length segs))

(* A recording cut short inside a segment is malformed input: the reader
   fails with a message, as for a bad magic, rather than letting
   End_of_file escape. *)
let recorder_read_rejects_truncation () =
  let r = Recorder.create ~label:"cut" (rcfg ~overflow:Recorder.Grow ()) in
  fill (Recorder.lane r 0) 50;
  with_temp_file (fun path ->
      Out_channel.with_open_bin path (fun oc -> Recorder.write_segment oc r);
      let whole = In_channel.with_open_bin path In_channel.input_all in
      List.iter
        (fun keep ->
          Out_channel.with_open_bin path (fun oc ->
              output_string oc (String.sub whole 0 keep));
          match In_channel.with_open_bin path Recorder.read_segments with
          | _ -> Alcotest.failf "%d of %d bytes read as a recording" keep
                   (String.length whole)
          | exception Failure msg ->
              Alcotest.(check string) "message" "corrupt segment: truncated"
                msg)
        [ 12; String.length whole / 2; String.length whole - 1 ])

(* Word-level codecs, including the corners a simulation never hits. *)

let record_codec_corners () =
  let b = Bytes.create 8 in
  List.iter
    (fun v ->
      Record.put64 b 0 v;
      Alcotest.(check int) "put64/get64" v (Record.get64 b 0);
      Record.set_word b 0 v;
      Alcotest.(check int) "set_word/get_word" v (Record.get_word b 0))
    [ 0; 1; -1; 42; min_int; max_int; Record.no_seq ]

let qcheck_word_codec =
  QCheck.Test.make ~name:"64-bit word round-trip" ~count:500
    QCheck.(frequency [ (4, int); (1, oneofl [ min_int; max_int; 0 ]) ])
    (fun v ->
      let b = Bytes.create 8 in
      Record.put64 b 0 v;
      Record.set_word b 0 v;
      Record.get64 b 0 = v && Record.get_word b 0 = v)

let qcheck_float_parts =
  QCheck.Test.make ~name:"float hi/lo split is exact" ~count:500
    QCheck.(
      frequency
        [ (4, float); (1, oneofl [ 0.; -0.; infinity; neg_infinity; 1e-300 ]) ])
    (fun f ->
      let g = Record.float_of_parts ~hi:(Record.float_hi f) ~lo:(Record.float_lo f) in
      Int64.bits_of_float g = Int64.bits_of_float f)

let qcheck_bits_of_nonneg_int =
  QCheck.Test.make ~name:"integer float-bits match the FPU" ~count:500
    QCheck.(
      frequency
        [
          (4, int_bound ((1 lsl 52) - 1));
          (1, oneofl [ 0; 1; 2; 3; 15; 16; 17; 1 lsl 51; (1 lsl 52) - 1 ]);
        ])
    (fun n ->
      Record.bits_of_nonneg_int n
      = Int64.to_int (Int64.bits_of_float (float_of_int n)))

(* ------------------------------------------------------------------ *)
(* Lifecycle spans *)

let sec t = int_of_float (t *. 1e9)

let spans_from_synthetic_records () =
  let r = Recorder.create (rcfg ~overflow:Recorder.Grow ()) in
  let lane = Recorder.lane r 0 in
  let sid = Recorder.intern r "bottleneck" in
  let packet kind tick uid =
    Recorder.record lane ~tick ~kind ~flow:0 ~a:uid ~b:1000 ~c:0 ~sid ~depth:0
  in
  (* uid 1 sojourns 0.25 s; uid 2 is dropped, so no span; uid 3 has no
     arrival, so its depart is ignored. *)
  packet Record.packet_arrival (sec 1.0) 1;
  packet Record.packet_arrival (sec 1.1) 2;
  packet Record.packet_drop (sec 1.2) 2;
  packet Record.packet_depart (sec 1.25) 1;
  packet Record.packet_depart (sec 1.3) 3;
  (* One 5 ms RTT sample. *)
  Recorder.record lane ~tick:(sec 2.0) ~kind:Record.tcp_rtt ~flow:0
    ~a:5_000_000 ~b:0 ~c:0 ~sid:0 ~depth:0;
  (* Flow 3: slow start 1 s..3 s, then congestion avoidance closed by
     the run_end marker at 4 s. *)
  let phase tick p =
    Recorder.record lane ~tick ~kind:Record.tcp_phase ~flow:3 ~a:p ~b:0 ~c:0
      ~sid:0 ~depth:0
  in
  phase (sec 1.0) Record.phase_slow_start;
  phase (sec 3.0) Record.phase_cong_avoid;
  Recorder.record lane ~tick:(sec 4.0) ~kind:Record.run_end ~flow:(-1) ~a:0
    ~b:0 ~c:0 ~sid:0 ~depth:0;
  let registry = Registry.create () in
  Spans.of_recorder ~registry r;
  let n name =
    match List.assoc_opt name (Spans.histograms registry) with
    | Some h -> Registry.observations h
    | None -> Alcotest.failf "no %s histogram" name
  in
  Alcotest.(check int) "one sojourn sample" 1 (n "packet_sojourn");
  Alcotest.(check int) "one rtt sample" 1 (n "rtt");
  Alcotest.(check int) "one slow-start span" 1 (n "phase:slow_start");
  Alcotest.(check int) "cong-avoid closed at run_end" 1 (n "phase:cong_avoid");
  Alcotest.(check int) "no recovery span" 0 (n "phase:recovery");
  (* Log-scale quantiles land in the right decade. *)
  let p50 name =
    match List.assoc_opt name (Spans.histograms registry) with
    | Some h -> Registry.p50 h
    | None -> 0.
  in
  Alcotest.(check bool) "sojourn ~0.25 s" true
    (p50 "packet_sojourn" > 0.1 && p50 "packet_sojourn" < 0.7);
  Alcotest.(check bool) "rtt ~5 ms" true
    (p50 "rtt" > 0.002 && p50 "rtt" < 0.02);
  (* And the registry renders them as labelled Prometheus histograms. *)
  let text = Registry.to_prometheus registry in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "prometheus contains %S" needle)
        true
        (Astring_like.contains text needle))
    [
      "# HELP trace_packet_sojourn_seconds";
      "# TYPE trace_packet_sojourn_seconds histogram";
      "trace_packet_sojourn_seconds_bucket";
      "trace_packet_sojourn_seconds_sum";
      "trace_packet_sojourn_seconds_count";
      "# TYPE trace_rtt_seconds histogram";
      "# TYPE trace_phase_seconds histogram";
      "trace_phase_seconds_bucket{phase=";
      ",le=\"";
      "phase=\"slow_start\"";
    ]

(* ------------------------------------------------------------------ *)
(* Burst: the streaming multi-timescale aggregator *)

(* Deterministic pseudo-random bytes (a 48-bit LCG, high bits): tests
   must not depend on the global [Random] state. *)
let lcg seed =
  let s = ref seed in
  fun () ->
    s := ((!s * 0x5DEECE66D) + 0xB) land 0xFFFF_FFFF_FFFF;
    !s lsr 40

let burst_matches_binned () =
  let next = lcg 42 in
  let times =
    Array.init 4000 (fun _ ->
        1. +. (float_of_int ((next () * 256) + next ()) *. (100. /. 65536.)))
  in
  Array.sort compare times;
  let origin = 1. and width = 0.25 and upto = 101. in
  let binned = Netstats.Binned.create ~origin ~width () in
  let burst = Burst.create ~levels:8 ~origin ~width () in
  Array.iter
    (fun at ->
      Netstats.Binned.record binned at;
      Burst.observe burst at)
    times;
  Burst.advance burst ~upto;
  let counts = Netstats.Binned.counts binned ~upto in
  Alcotest.(check int) "same closed bins" (Array.length counts)
    (Burst.bins burst);
  Alcotest.(check int) "all events counted"
    (int_of_float (Array.fold_left ( +. ) 0. counts))
    (Burst.total burst);
  let s = Netstats.Summary.of_array counts in
  check_float "level-0 mean" s.Netstats.Summary.mean (Burst.scale_mean burst 0);
  check_float "level-0 cov" s.Netstats.Summary.cov
    (Option.get (Burst.cov burst 0))

let burst_create_rejects_bad_bins () =
  let rejects msg f =
    Alcotest.check_raises msg (Invalid_argument ("Burst.create: " ^ msg))
      (fun () -> ignore (f ()))
  in
  List.iter
    (fun width ->
      rejects "width must be finite and > 0" (fun () ->
          Burst.create ~origin:0. ~width ()))
    [ nan; infinity; neg_infinity; 0.; -1. ];
  List.iter
    (fun origin ->
      rejects "origin must be finite" (fun () ->
          Burst.create ~origin ~width:1. ()))
    [ nan; infinity; neg_infinity ]

(* The streaming per-scale moments against the offline estimators on
   the same (integer-valued, so float-exact) count array. *)
let burst_matches_offline_per_scale =
  QCheck.Test.make ~name:"streaming cov/idc match offline per scale" ~count:300
    QCheck.(list_of_size Gen.(int_range 2 200) (int_bound 20))
    (fun counts ->
      let xs = Array.of_list (List.map float_of_int counts) in
      let b = Burst.create ~levels:6 ~origin:0. ~width:1. () in
      Array.iter (Burst.push b) xs;
      let ok = ref true in
      for j = 0 to Burst.levels b - 1 do
        let m = 1 lsl j in
        let nblocks = Array.length xs / m in
        if nblocks >= 2 then begin
          let blocks =
            Array.init nblocks (fun i ->
                let s = ref 0. in
                for k = 0 to m - 1 do
                  s := !s +. xs.((i * m) + k)
                done;
                !s)
          in
          let s = Netstats.Summary.of_array blocks in
          (match Burst.cov b j with
          | Some c ->
              if abs_float (c -. s.Netstats.Summary.cov) > 1e-9 then ok := false
          | None -> if s.Netstats.Summary.mean > 0. then ok := false);
          match
            ( Burst.idc b j,
              try Some (Oracle.idc xs m)
              with Invalid_argument _ -> None )
          with
          | Some a, Some o -> if abs_float (a -. o) > 1e-9 then ok := false
          | None, None -> ()
          | _ -> ok := false
        end
      done;
      !ok)

let burst_haar_energy_direct () =
  let xs = [| 3.; 1.; 4.; 1.; 5.; 9.; 2.; 6. |] in
  let b = Burst.create ~levels:4 ~origin:0. ~width:1. () in
  Array.iter (Burst.push b) xs;
  (* Octave 1 pairs base bins: details (3-1, 4-1, 5-9, 2-6), energy is
     the mean square over the L2 normalization 2^1. *)
  let e1 = ((2. *. 2.) +. (3. *. 3.) +. (4. *. 4.) +. (4. *. 4.)) /. 4. /. 2. in
  Alcotest.(check int) "octave-1 details" 4 (Burst.haar_count b 1);
  check_float "octave-1 energy" e1 (Option.get (Burst.haar_energy b 1));
  (* Octave 2 pairs the level-1 sums (4, 5) and (14, 8), over 2^2. *)
  let e2 = (1. +. 36.) /. 2. /. 4. in
  Alcotest.(check int) "octave-2 details" 2 (Burst.haar_count b 2);
  check_float "octave-2 energy" e2 (Option.get (Burst.haar_energy b 2));
  (* Octave 3 pairs the level-2 sums (9, 22): a single detail. *)
  Alcotest.(check int) "octave-3 details" 1 (Burst.haar_count b 3);
  check_float "octave-3 energy" (169. /. 8.) (Option.get (Burst.haar_energy b 3))

(* Poisson arrivals have IDC 1 at every scale: exponential gaps of
   mean 10 ms over 1000 s in 100 ms base bins, read at m = 1 and 8. *)
let burst_poisson_idc_near_one () =
  let rng = Sim_engine.Rng.create ~seed:30L in
  let b = Burst.create ~levels:4 ~origin:0. ~width:0.1 () in
  let t = ref 0. in
  while !t < 1000. do
    t := !t +. Sim_engine.Rng.exponential rng ~mean:0.01;
    if !t < 1000. then Burst.observe b !t
  done;
  Burst.advance b ~upto:1000.;
  let idc1 = Option.get (Burst.idc b 0) and idc8 = Option.get (Burst.idc b 3) in
  Alcotest.(check bool)
    (Printf.sprintf "idc(1) %.3f ~ 1" idc1)
    true
    (idc1 > 0.8 && idc1 < 1.2);
  Alcotest.(check bool)
    (Printf.sprintf "idc(8) %.3f ~ 1" idc8)
    true
    (idc8 > 0.7 && idc8 < 1.3)

let burst_white_noise_hurst_half () =
  let next = lcg 7 in
  let b = Burst.create ~levels:10 ~origin:0. ~width:1. () in
  for _ = 1 to 8192 do
    Burst.push b (float_of_int (next ()))
  done;
  match Burst.hurst_wavelet b with
  | Some h ->
      Alcotest.(check bool)
        (Printf.sprintf "H %.2f near 0.5" h)
        true
        (abs_float (h -. 0.5) < 0.2)
  | None -> Alcotest.fail "no hurst estimate"

let burst_observe_tick_matches_observe =
  QCheck.Test.make ~name:"observe_tick == observe on converted ticks"
    ~count:300
    QCheck.(list_of_size Gen.(int_range 1 300) (int_bound 2_000_000_000))
    (fun ticks ->
      let ticks = List.sort compare ticks in
      let a = Burst.create ~levels:5 ~origin:0.1 ~width:0.05 () in
      let b = Burst.create ~levels:5 ~origin:0.1 ~width:0.05 () in
      List.iter
        (fun ns ->
          Burst.observe_tick a ns;
          Burst.observe b (float_of_int ns /. 1e9))
        ticks;
      Burst.advance a ~upto:2.5;
      Burst.advance b ~upto:2.5;
      Burst.total a = Burst.total b
      && Burst.bins a = Burst.bins b
      && Burst.cov a 0 = Burst.cov b 0
      && Burst.idc a 2 = Burst.idc b 2)

(* Feed one (seconds, value) sample through the detector's tick/cell
   entry. *)
let osc_feed osc ~t v =
  Burst.Osc.sample osc ~tick:(Int.of_float (Float.round (t *. 1e9))) [| v |]

let osc_sine_flags_flat_does_not () =
  let osc = Burst.Osc.create () in
  for i = 0 to 999 do
    let t = float_of_int i *. 0.01 in
    osc_feed osc ~t (10. +. (4. *. sin (2. *. Float.pi *. t)))
  done;
  Alcotest.(check bool) "sine oscillates" true (Burst.Osc.oscillating osc);
  let f = Burst.Osc.frequency_hz osc in
  Alcotest.(check bool)
    (Printf.sprintf "frequency %.2f near 1 Hz" f)
    true
    (f > 0.5 && f < 1.5);
  Alcotest.(check bool) "amplitude above threshold" true
    (Burst.Osc.rel_amplitude osc > 0.2);
  (* Same mean, jitter an order of magnitude under the threshold: the
     detector must stay quiet. *)
  let flat = Burst.Osc.create () in
  let next = lcg 99 in
  for i = 0 to 999 do
    let jitter = float_of_int (next ()) /. 2560. in
    osc_feed flat ~t:(float_of_int i *. 0.01) (10. +. jitter)
  done;
  Alcotest.(check bool) "flat plus noise is quiet" false
    (Burst.Osc.oscillating flat)

(* Every probed run feeds the detector every 20 ms; a sample through the
   tick/cell entry must not allocate. *)
let osc_sample_allocates_nothing () =
  let osc = Burst.Osc.create () in
  let cell = [| 0. |] in
  let n = 10_000 in
  let before = Gc.minor_words () in
  for i = 1 to n do
    cell.(0) <- float_of_int (i land 15);
    Burst.Osc.sample osc ~tick:(i * 20_000_000) cell
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "all fed" n (Burst.Osc.samples osc);
  Alcotest.(check (float 0.)) "minor words for 10^4 samples" 0. words

let burst_record_kinds_roundtrip () =
  List.iter
    (fun k ->
      let label = Record.kind_label k in
      Alcotest.(check (option int)) label (Some k) (Record.kind_of_label label);
      Alcotest.(check bool) (label ^ " is lifecycle") false (Record.is_parity k))
    [
      Record.burst_cov;
      Record.burst_idc;
      Record.burst_hurst;
      Record.burst_osc_amp;
      Record.burst_osc_freq;
    ]

let burst_record_summary_decodes () =
  let r = Recorder.create (rcfg ~capacity:64 ()) in
  let lane = Recorder.lane r 0 in
  let sid = Recorder.intern r "bottleneck" in
  let b = Burst.create ~levels:4 ~origin:0. ~width:1. () in
  Array.iter (Burst.push b) [| 3.; 1.; 4.; 1.; 5.; 9.; 2.; 6. |];
  let osc = Burst.Osc.create () in
  for i = 0 to 99 do
    let t = float_of_int i *. 0.1 in
    osc_feed osc ~t (5. +. (3. *. sin t))
  done;
  let s = Burst.summary ~osc b in
  Burst.record_summary lane ~tick:8_000_000_000 ~sid s;
  let counts = Hashtbl.create 8 in
  let cov0 = ref nan in
  Recorder.iter_lane lane (fun ~seq:_ buf off ->
      let k = buf.(off + 1) in
      Hashtbl.replace counts k
        (1 + (try Hashtbl.find counts k with Not_found -> 0));
      if k = Record.burst_cov && buf.(off + 3) = 0 then
        cov0 := Record.float_of_parts ~hi:buf.(off + 4) ~lo:buf.(off + 5));
  let count k = try Hashtbl.find counts k with Not_found -> 0 in
  let populated = List.length s.Burst.scales in
  Alcotest.(check int) "a cov record per populated scale" populated
    (count Record.burst_cov);
  Alcotest.(check int) "an idc record per populated scale" populated
    (count Record.burst_idc);
  Alcotest.(check int) "hurst record iff estimated"
    (if s.Burst.s_hurst = None then 0 else 1)
    (count Record.burst_hurst);
  Alcotest.(check int) "one osc amplitude record" 1
    (count Record.burst_osc_amp);
  Alcotest.(check int) "one osc frequency record" 1
    (count Record.burst_osc_freq);
  let expect =
    match
      (List.find (fun (row : Burst.scale_row) -> row.Burst.level = 0)
         s.Burst.scales)
        .Burst.s_cov
    with
    | Some v -> v
    | None -> nan
  in
  check_float "level-0 cov bits round-trip" expect !cov0

(* --- hybrid record kinds ------------------------------------------- *)

let hybrid_record_kinds_roundtrip () =
  List.iter
    (fun k ->
      let label = Record.kind_label k in
      Alcotest.(check (option int)) label (Some k) (Record.kind_of_label label);
      Alcotest.(check bool) (label ^ " is lifecycle") false (Record.is_parity k))
    [ Record.hybrid_bg_window; Record.hybrid_bg_queue; Record.hybrid_bg_rate ];
  (* End-of-run summary records carry (background, value, steps) and
     decode through the self-describing JSON path. *)
  let r = Recorder.create (rcfg ~capacity:16 ()) in
  let lane = Recorder.lane r 0 in
  let sid = Recorder.intern r "hybrid run" in
  Recorder.record lane ~tick:1_000_000 ~kind:Record.hybrid_bg_queue ~flow:(-1)
    ~a:999_900
    ~b:(Record.float_hi 21237.5)
    ~c:(Record.float_lo 21237.5)
    ~sid ~depth:4242;
  Recorder.iter_lane lane (fun ~seq:_ buf off ->
      let j = Record.json_of_record ~lookup:(fun _ -> "hybrid run") buf off in
      Alcotest.(check bool) "event tag" true
        (Json.member "event" j = Some (Json.String "hybrid"));
      Alcotest.(check bool) "kind tag" true
        (Json.member "kind" j = Some (Json.String "bg_queue"));
      Alcotest.(check bool) "background flows" true
        (Json.member "background" j = Some (Json.Int 999_900));
      Alcotest.(check bool) "steps" true
        (Json.member "steps" j = Some (Json.Int 4242));
      match Option.bind (Json.member "value" j) Json.to_float with
      | Some v -> check_float "value bits round-trip" 21237.5 v
      | None -> Alcotest.fail "value missing")

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "telemetry.registry",
      [
        Alcotest.test_case "get-or-create" `Quick registry_get_or_create;
        Alcotest.test_case "labels canonicalised" `Quick registry_labels_canonicalised;
        Alcotest.test_case "kind mismatch raises" `Quick registry_kind_mismatch_raises;
        Alcotest.test_case "invalid name raises" `Quick registry_invalid_name_raises;
        Alcotest.test_case "gauge set_max / add" `Quick registry_gauge_set_max;
        Alcotest.test_case "histogram quantiles" `Quick registry_histogram_quantiles;
        Alcotest.test_case "json round-trip" `Quick registry_json_roundtrip;
        Alcotest.test_case "prometheus text" `Quick registry_prometheus_text;
        Alcotest.test_case "merge: counters sum" `Quick registry_merge_counters_sum;
        Alcotest.test_case "merge: gauge rules" `Quick registry_merge_gauge_rules;
        Alcotest.test_case "merge: histograms combine" `Quick
          registry_merge_histograms_combine;
        Alcotest.test_case "merge: layout mismatch raises" `Quick
          registry_merge_layout_mismatch_raises;
        Alcotest.test_case "probe merge report validates" `Quick
          probe_merge_report_validates;
      ] );
    ( "telemetry.event_bus",
      [
        Alcotest.test_case "pub/sub order" `Quick bus_pub_sub_order;
        Alcotest.test_case "published without subscribers" `Quick
          bus_published_without_subscribers;
        Alcotest.test_case "ndjson round-trip" `Quick bus_ndjson_roundtrip;
        Alcotest.test_case "event field first" `Quick bus_ndjson_event_field_first;
        Alcotest.test_case "rejects garbage" `Quick bus_of_json_rejects_garbage;
        Alcotest.test_case "ndjson writer reuses its buffer" `Quick
          bus_ndjson_writer_reuses_buffer;
      ]
      @ qsuite [ bus_roundtrip_property ]
      @ [ QCheck_alcotest.to_alcotest bus_renderer_matches_tree_property ] );
    ( "telemetry.json",
      qsuite
        [
          json_float_matches_reference;
          json_string_matches_reference;
          json_int_matches_reference;
        ] );
    ( "telemetry.perf",
      [ Alcotest.test_case "phases accumulate" `Quick perf_phases_accumulate ] );
    ( "telemetry.progress",
      [
        Alcotest.test_case "progress lines" `Quick progress_lines;
        Alcotest.test_case "formatting" `Quick progress_formatting;
      ] );
    ( "telemetry.report",
      [
        Alcotest.test_case "of_probe validates" `Quick report_of_probe_validates;
        Alcotest.test_case "validate rejects" `Quick report_validate_rejects;
        Alcotest.test_case "alloc schema accepts" `Quick (gates_accept alloc_gates);
        Alcotest.test_case "alloc schema rejects" `Quick (gates_reject alloc_gates);
        Alcotest.test_case "flows schema accepts" `Quick (gates_accept flows_gates);
        Alcotest.test_case "flows schema rejects" `Quick (gates_reject flows_gates);
        Alcotest.test_case "flows smoke rows gated lightly" `Quick (fun () ->
            gates_accept (flows_gates @ flows_smoke_gates) ();
            gates_reject flows_smoke_gates ());
        Alcotest.test_case "parallel schema accepts" `Quick
          (gates_accept parallel_gates);
        Alcotest.test_case "parallel schema rejects" `Quick
          (gates_reject parallel_gates);
        Alcotest.test_case "bench-telemetry schema accepts" `Quick
          (gates_accept telemetry_gates);
        Alcotest.test_case "bench-telemetry schema rejects" `Quick
          (gates_reject telemetry_gates);
        Alcotest.test_case "burst schema accepts" `Quick (gates_accept burst_gates);
        Alcotest.test_case "burst schema rejects" `Quick (gates_reject burst_gates);
        Alcotest.test_case "hybrid record kinds round-trip" `Quick
          hybrid_record_kinds_roundtrip;
        Alcotest.test_case "hybrid schema accepts" `Quick
          (gates_accept hybrid_gates);
        Alcotest.test_case "hybrid schema rejects" `Quick
          (gates_reject hybrid_gates);
        Alcotest.test_case "gates: malformed documents rejected" `Quick
          gates_reject_malformed;
        Alcotest.test_case "gates: spread rule" `Quick gates_spread_rule;
      ]
      @ qsuite [ gates_verdict_property ] );
    ( "telemetry.burst",
      [
        Alcotest.test_case "observe matches Binned" `Quick burst_matches_binned;
        Alcotest.test_case "create rejects bad bins" `Quick
          burst_create_rejects_bad_bins;
        Alcotest.test_case "haar energies by hand" `Quick
          burst_haar_energy_direct;
        Alcotest.test_case "white noise H ~ 0.5" `Quick
          burst_white_noise_hurst_half;
        Alcotest.test_case "poisson idc ~ 1" `Quick burst_poisson_idc_near_one;
        Alcotest.test_case "osc: sine flags, flat does not" `Quick
          osc_sine_flags_flat_does_not;
        Alcotest.test_case "osc sample allocates nothing" `Quick
          osc_sample_allocates_nothing;
        Alcotest.test_case "record kinds round-trip" `Quick
          burst_record_kinds_roundtrip;
        Alcotest.test_case "record_summary decodes" `Quick
          burst_record_summary_decodes;
      ]
      @ qsuite
          [ burst_matches_offline_per_scale; burst_observe_tick_matches_observe ]
    );
    ( "telemetry.recorder",
      [
        Alcotest.test_case "ring drops oldest" `Quick recorder_ring_drops_oldest;
        Alcotest.test_case "capacity rounds up" `Quick
          recorder_capacity_rounds_up;
        Alcotest.test_case "grow keeps everything" `Quick
          recorder_grow_keeps_everything;
        Alcotest.test_case "merge by (tick, lane, seq)" `Quick
          recorder_merges_lanes_by_tick_then_lane;
        Alcotest.test_case "segment round-trip" `Quick
          recorder_segment_round_trip;
        Alcotest.test_case "read rejects garbage" `Quick
          recorder_read_rejects_garbage;
        Alcotest.test_case "codec corners" `Quick record_codec_corners;
        Alcotest.test_case "grow layout across chunk boundaries" `Quick
          (recorder_layout_round_trip ~overflow:Recorder.Grow ~first:0);
        Alcotest.test_case "ring layout after wrap" `Quick
          (recorder_layout_round_trip ~overflow:Recorder.Drop_oldest ~first:24);
        Alcotest.test_case "read rejects truncation" `Quick
          recorder_read_rejects_truncation;
      ]
      @ qsuite
          [ qcheck_word_codec; qcheck_float_parts; qcheck_bits_of_nonneg_int ]
    );
    ( "telemetry.spans",
      [
        Alcotest.test_case "synthetic records to histograms" `Quick
          spans_from_synthetic_records;
      ] );
    ( "telemetry.integration",
      [
        Alcotest.test_case "probe instruments a run" `Quick probe_instruments_a_run;
        Alcotest.test_case "bus sees packet and tcp events" `Quick
          probe_bus_sees_packet_and_tcp_events;
        Alcotest.test_case "telemetry does not perturb results" `Quick
          probe_run_deterministic_under_telemetry;
      ] );
  ]
