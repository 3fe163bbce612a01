type recording = {
  config : Recorder.config;
  mutable segments_rev : Recorder.t list; (* newest first *)
}

type t = {
  registry : Registry.t;
  bus : Event_bus.t;
  phases : Perf.phases;
  mutable recording : recording option;
  mutable burst : Burst.config option;
}

let create () =
  {
    registry = Registry.create ();
    bus = Event_bus.create ();
    phases = Perf.phases ();
    recording = None;
    burst = None;
  }

let set_recording t config = t.recording <- Some { config; segments_rev = [] }

let set_burst t config = t.burst <- config

let burst_config t = t.burst

(* The bus hears a run only through the replay of its recorded parity
   records, so a run whose bus has subscribers records even when the
   probe keeps no recording: into a private parity recorder, dropped
   after the replay. *)
let trace_config = { Recorder.default_config with lifecycle = false }

let trace_recorder t =
  if Event_bus.has_subscribers t.bus then Some (Recorder.create trace_config)
  else None

(* Worker probes for parallel sweeps: fresh facilities, same recording
   and burst configuration. Workers always buffer ([Grow]) — their
   segments are carried back through {!merge}, which replays them into
   the main probe's bus; a main probe whose bus alone listens gives its
   workers a parity recording for that replay. *)
let create_like src =
  let t = create () in
  (match src.recording with
  | Some r ->
      set_recording t { r.config with Recorder.overflow = Recorder.Grow }
  | None -> if Event_bus.has_subscribers src.bus then set_recording t trace_config);
  t.burst <- src.burst;
  t

let run_recorder t ~label =
  match t.recording with
  | None -> trace_recorder t
  | Some r ->
      let rec_ = Recorder.create ~label r.config in
      r.segments_rev <- rec_ :: r.segments_rev;
      Some rec_

(* One pass over the records feeds both consumers. *)
let replay ?(spans = false) t r =
  let bus = Event_bus.has_subscribers t.bus in
  if spans || bus then begin
    let acc = if spans then Some (Spans.create t.registry) else None in
    let lookup = Recorder.lookup r in
    Recorder.iter_merged r (fun ~lane:_ ~seq:_ buf off ->
        (match acc with Some a -> Spans.add a buf off | None -> ());
        if bus then
          match Record.event_of_record ~lookup buf off with
          | Some e -> Event_bus.publish t.bus e
          | None -> ());
    Option.iter Spans.close acc
  end

let replay_canonical t rs =
  if Event_bus.has_subscribers t.bus then begin
    let tagged = ref [] in
    List.iter
      (fun r ->
        Recorder.iter_events r (fun e ->
            tagged := (Event_bus.time e, Event_bus.to_ndjson e, e) :: !tagged))
      rs;
    let tagged = Array.of_list !tagged in
    Array.sort
      (fun (ta, la, _) (tb, lb, _) ->
        if ta <> tb then Float.compare ta tb else String.compare la lb)
      tagged;
    Array.iter (fun (_, _, e) -> Event_bus.publish t.bus e) tagged
  end

let segments t =
  match t.recording with None -> [] | Some r -> List.rev r.segments_rev

let write_segments t oc =
  List.iter (fun r -> Recorder.write_segment oc r) (segments t)

let time probe name f =
  match probe with Some p -> Perf.time p.phases name f | None -> f ()

let m_runs = "sim_runs_total"

let m_events = "sim_events_total"

let m_sim_seconds = "sim_seconds_total"

let m_run_wall = "sim_run_wall_seconds_total"

let m_eq_hwm = "event_queue_high_water_mark"

let m_gw_hwm = "gateway_queue_high_water_mark"

let m_arrivals = "gateway_arrivals_total"

let m_drops = "gateway_drops_total"

let m_minor_words = "gc_minor_words_total"

let m_promoted_words = "gc_promoted_words_total"

let m_major_collections = "gc_major_collections_total"

let m_words_per_event = "gc_minor_words_per_event"

(* Keep the words/event ratio consistent with the totals it is derived
   from; recomputed after every note_run and after merges. *)
let refresh_words_per_event t =
  let r = t.registry in
  let minor =
    Registry.gauge_value
      (Registry.gauge r ~help:"Minor-heap words allocated during runs"
         m_minor_words)
  in
  let events =
    Registry.counter_value
      (Registry.counter r ~help:"Scheduler events fired" m_events)
  in
  if events > 0 then
    Registry.set
      (Registry.gauge r ~help:"Minor-heap words allocated per scheduler event"
         m_words_per_event)
      (minor /. float_of_int events)

let note_run t ~label ~sim_s ~wall_s ~events ~event_queue_hwm ~gateway_queue_hwm
    ~arrivals ~drops ?(gc = Perf.gc_zero) () =
  let r = t.registry in
  Registry.inc (Registry.counter r ~help:"Simulation runs completed" m_runs);
  Registry.inc ~by:events
    (Registry.counter r ~help:"Scheduler events fired" m_events);
  Registry.add (Registry.gauge r ~help:"Simulated seconds" m_sim_seconds) sim_s;
  Registry.add
    (Registry.gauge r ~help:"Wall-clock seconds in the run phase" m_run_wall)
    wall_s;
  Registry.set_max
    (Registry.gauge r ~help:"Peak pending scheduler events" m_eq_hwm)
    (float_of_int event_queue_hwm);
  Registry.set_max
    (Registry.gauge r ~help:"Peak gateway queue occupancy (packets)" m_gw_hwm)
    (float_of_int gateway_queue_hwm);
  Registry.inc ~by:arrivals
    (Registry.counter r ~help:"Gateway packet arrivals" m_arrivals);
  Registry.inc ~by:drops (Registry.counter r ~help:"Gateway packet drops" m_drops);
  Registry.add
    (Registry.gauge r ~help:"Minor-heap words allocated during runs"
       m_minor_words)
    gc.Perf.minor_words;
  Registry.add
    (Registry.gauge r ~help:"Words promoted to the major heap during runs"
       m_promoted_words)
    gc.Perf.promoted_words;
  Registry.inc ~by:gc.Perf.major_collections
    (Registry.counter r ~help:"Major GC cycles during runs" m_major_collections);
  refresh_words_per_event t;
  let labels = [ ("run", label) ] in
  Registry.inc ~by:events
    (Registry.counter r ~labels ~help:"Scheduler events fired per run"
       "run_events_total");
  Registry.add
    (Registry.gauge r ~labels ~help:"Run-phase wall seconds per run"
       "run_wall_seconds")
    wall_s

(* How each well-known gauge combines when a worker probe folds into the
   main one: high-water marks keep the max, seconds totals accumulate,
   anything else keeps last-write semantics. *)
let gauge_merge_rule ~name ~labels:_ =
  if String.equal name m_eq_hwm || String.equal name m_gw_hwm then `Max
  else if
    String.equal name m_sim_seconds
    || String.equal name m_run_wall
    || String.equal name "run_wall_seconds"
    || String.equal name m_minor_words
    || String.equal name m_promoted_words
  then `Sum
  else `Set

let merge ~into src =
  Registry.merge ~gauge_rule:gauge_merge_rule ~into:into.registry src.registry;
  Perf.merge_into ~into:into.phases src.phases;
  (* Worker segments ride along in merge order, which the sweep drives
     in input order, so the merged record file and the bus stream are
     deterministic and identical to a sequential run's. A worker
     recording made only to feed the bus is replayed, never adopted. *)
  (match src.recording with
  | None -> ()
  | Some s -> (
      List.iter (replay into) (List.rev s.segments_rev);
      match into.recording with
      | Some d -> d.segments_rev <- s.segments_rev @ d.segments_rev
      | None -> ()));
  (* The per-event ratio is not mergeable (last-write would keep one
     worker's value); rebuild it from the merged totals. *)
  refresh_words_per_event into

let runs_total t = Registry.counter_value (Registry.counter t.registry m_runs)

let events_total t = Registry.counter_value (Registry.counter t.registry m_events)
