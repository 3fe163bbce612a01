type t = {
  label : string;
  runs : int;
  events_fired : int;
  event_queue_hwm : int;
  gateway_queue_hwm : int;
  sim_time_s : float;
  run_wall_s : float;
  wall_s : float;
  events_per_sec : float;
  sim_wall_ratio : float;
  words_per_event : float;
  bus_events : int;
  phases : (string * float) list;
  metrics : Json.t;
}

let of_probe ?(label = "run") (p : Probe.t) =
  let r = p.Probe.registry in
  let gauge name = Registry.gauge_value (Registry.gauge r name) in
  let events_fired = Probe.events_total p in
  let sim_time_s = gauge Probe.m_sim_seconds in
  let run_wall_s = gauge Probe.m_run_wall in
  let total = Perf.duration_s p.Probe.phases "total" in
  let wall_s = if total > 0. then total else Perf.total_s p.Probe.phases in
  let rate x = if run_wall_s > 0. then x /. run_wall_s else 0. in
  {
    label;
    runs = Probe.runs_total p;
    events_fired;
    event_queue_hwm = int_of_float (gauge Probe.m_eq_hwm);
    gateway_queue_hwm = int_of_float (gauge Probe.m_gw_hwm);
    sim_time_s;
    run_wall_s;
    wall_s;
    events_per_sec = rate (float_of_int events_fired);
    sim_wall_ratio = rate sim_time_s;
    words_per_event = gauge Probe.m_words_per_event;
    bus_events = Event_bus.published p.Probe.bus;
    phases = Perf.durations_s p.Probe.phases;
    metrics = Registry.to_json r;
  }

let to_json t =
  Json.Obj
    [
      ("label", Json.String t.label);
      ("runs", Json.Int t.runs);
      ("events_fired", Json.Int t.events_fired);
      ("event_queue_hwm", Json.Int t.event_queue_hwm);
      ("gateway_queue_hwm", Json.Int t.gateway_queue_hwm);
      ("sim_time_s", Json.Float t.sim_time_s);
      ("run_wall_s", Json.Float t.run_wall_s);
      ("wall_s", Json.Float t.wall_s);
      ("events_per_sec", Json.Float t.events_per_sec);
      ("sim_wall_ratio", Json.Float t.sim_wall_ratio);
      ("words_per_event", Json.Float t.words_per_event);
      ("bus_events", Json.Int t.bus_events);
      ("phases", Json.Obj (List.map (fun (n, s) -> (n, Json.Float s)) t.phases));
      ("metrics", t.metrics);
    ]

let required_fields =
  [
    "label";
    "runs";
    "events_fired";
    "event_queue_hwm";
    "gateway_queue_hwm";
    "events_per_sec";
    "phases";
    "metrics";
  ]

let validate j =
  match j with
  | Json.Obj _ ->
      let missing =
        List.filter (fun f -> Json.member f j = None) required_fields
      in
      let shape_errors =
        (match Json.member "phases" j with
        | Some (Json.Obj _) | None -> []
        | Some _ -> [ "phases is not an object" ])
        @
        match Json.member "metrics" j with
        | Some (Json.List _) | None -> []
        | Some _ -> [ "metrics is not a list" ]
      in
      if missing = [] && shape_errors = [] then Ok ()
      else
        Error
          (String.concat "; "
             ((match missing with
              | [] -> []
              | _ -> [ "missing fields: " ^ String.concat ", " missing ])
             @ shape_errors))
  | _ -> Error "report is not a JSON object"

(* Gate documents: every BENCH_*.json file carries a [gates] list. The
   bench that writes a file and [report-check] that re-reads it judge
   each gate with the same [verdict]. *)

type op = Le | Ge | Eq
type spread = { reps : int; q1 : float; median : float; q3 : float }

type gate = {
  name : string;
  measured : float option;
  op : op;
  bound : float;
  spread : spread option;
  skip : string option;
}

type verdict = Pass | Skipped of string | Fail of string

let op_label = function Le -> "le" | Ge -> "ge" | Eq -> "eq"

let verdict g =
  match (g.measured, g.skip) with
  | None, Some reason when reason <> "" -> Skipped reason
  | None, _ -> Fail "measured is null with no skip reason"
  | Some m, _ -> (
      match g.spread with
      | Some s when s.median <> m ->
          Fail
            (Printf.sprintf "measured %g is not its spread median %g" m
               s.median)
      | spread -> (
          (* A timed gate is judged on the quartile nearest its bound, so
             it fails only when most reps land on the wrong side. *)
          let what, x =
            match (spread, g.op) with
            | Some s, Le -> ("q1", s.q1)
            | Some s, Ge -> ("q3", s.q3)
            | _ -> ("measured", m)
          in
          match g.op with
          | Le when not (x <= g.bound) ->
              Fail (Printf.sprintf "%s %g exceeds bound %g" what x g.bound)
          | Ge when not (x >= g.bound) ->
              Fail (Printf.sprintf "%s %g is below bound %g" what x g.bound)
          | Eq when not (x = g.bound) ->
              Fail (Printf.sprintf "%s %g is not %g" what x g.bound)
          | Le | Ge | Eq -> Pass))

let gate_to_json g =
  (* A non-finite measurement is written as null: lacking a skip reason,
     it fails on re-read just as it failed in memory. *)
  let measured =
    match g.measured with
    | Some m when Float.is_finite m -> Json.Float m
    | _ -> Json.Null
  in
  Json.Obj
    ([
       ("name", Json.String g.name);
       ("measured", measured);
       ("op", Json.String (op_label g.op));
       ("bound", Json.Float g.bound);
     ]
    @ (match g.spread with
      | Some s ->
          [
            ( "spread",
              Json.Obj
                [
                  ("reps", Json.Int s.reps);
                  ("q1", Json.Float s.q1);
                  ("median", Json.Float s.median);
                  ("q3", Json.Float s.q3);
                ] );
          ]
      | None -> [])
    @ match g.skip with Some r -> [ ("skip", Json.String r) ] | None -> [])

let gate_of_json j =
  let ( let* ) = Result.bind in
  let string = function Json.String s -> Some s | _ -> None in
  let field conv what f =
    match Option.bind (Json.member f j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "%s is not %s" f what)
  in
  let optional conv what f =
    if Json.member f j = None then Ok None
    else Result.map Option.some (field conv what f)
  in
  let* name = field string "a string" "name" in
  Result.map_error
    (fun e -> name ^ ": " ^ e)
    (let* op =
       field
         (function
           | Json.String "le" -> Some Le
           | Json.String "ge" -> Some Ge
           | Json.String "eq" -> Some Eq
           | _ -> None)
         "le, ge or eq" "op"
     in
     let* bound = field Json.to_float "a number" "bound" in
     let* measured =
       field
         (function
           | Json.Null -> Some None
           | v -> Option.map Option.some (Json.to_float v))
         "a number or null" "measured"
     in
     let* spread =
       optional
         (fun s ->
           let q f = Option.bind (Json.member f s) Json.to_float in
           match (Json.member "reps" s, q "q1", q "median", q "q3") with
           | Some (Json.Int reps), Some q1, Some median, Some q3 ->
               Some { reps; q1; median; q3 }
           | _ -> None)
         "{reps, q1, median, q3}" "spread"
     in
     let* skip = optional string "a string" "skip" in
     Ok { name; measured; op; bound; spread; skip })

let validate_gates j =
  match Json.member "gates" j with
  | Some (Json.List []) -> Error "gates is empty"
  | Some (Json.List items) -> (
      let parsed = List.map gate_of_json items in
      let gates = List.filter_map Result.to_option parsed in
      let rec duplicates = function
        | a :: b :: rest when a = b ->
            a :: duplicates (List.filter (( <> ) a) rest)
        | _ :: rest -> duplicates rest
        | [] -> []
      in
      let errors =
        List.filter_map (function Error e -> Some e | Ok _ -> None) parsed
        @ List.map
            (fun n -> "duplicate gate " ^ n)
            (duplicates (List.sort compare (List.map (fun g -> g.name) gates)))
        @ List.filter_map
            (fun g ->
              match verdict g with
              | Fail m -> Some (g.name ^ ": " ^ m)
              | Pass | Skipped _ -> None)
            gates
      in
      match errors with [] -> Ok () | _ -> Error (String.concat "; " errors))
  | Some _ -> Error "gates is not a list"
  | None -> Error "no gates list"
