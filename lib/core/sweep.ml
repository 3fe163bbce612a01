let seed_for cfg scenario n =
  let h = Hashtbl.hash (Scenario.label scenario, n) in
  Int64.logxor cfg.Config.seed (Int64.of_int ((h * 2654435761) land max_int))

let point_label scenario n = Printf.sprintf "%s n=%d" (Scenario.label scenario) n

(* Run [f] once per element of [items]. Without a team (or with a
   one-domain team) this is [List.map] with the caller's [probe] shared
   by every run and [notify] fired inline after each. With a team, the
   points are one [Team.map] across its domains: every point gets a
   private probe (when the caller passed one) so no registry cell is
   shared between domains, [notify] is serialized behind a mutex, and
   once all points are done the worker probes fold into the caller's
   probe in input order. Each point derives its own seed, so the metric
   list is bit-identical to the sequential path — only wall-clock
   telemetry and the interleaving of [notify] calls differ. *)
let fan ?pool ?probe ~notify ~label items f =
  let sequential () =
    List.map
      (fun x ->
        let r = f ?probe x in
        notify (label x);
        r)
      items
  in
  match pool with
  | None -> sequential ()
  | Some pool when Parallel.Pool.Team.size pool <= 1 -> sequential ()
  | Some pool ->
      let note =
        let m = Mutex.create () in
        fun l -> Mutex.protect m (fun () -> notify l)
      in
      let tagged =
        Parallel.Pool.Team.map pool
          (fun x ->
            let worker = Option.map Telemetry.Probe.create_like probe in
            let r = f ?probe:worker x in
            note (label x);
            (r, worker))
          items
      in
      Option.iter
        (fun into ->
          List.iter
            (fun (_, worker) ->
              Option.iter (fun src -> Telemetry.Probe.merge ~into src) worker)
            tagged)
        probe;
      List.map fst tagged

let chunks k items =
  let rec take n acc rest =
    if n = 0 then (List.rev acc, rest)
    else
      match rest with
      | [] -> invalid_arg "Sweep.chunks: ragged input"
      | x :: tl -> take (n - 1) (x :: acc) tl
  in
  let rec go acc rest =
    match rest with
    | [] -> List.rev acc
    | _ ->
        let chunk, rest = take k [] rest in
        go (chunk :: acc) rest
  in
  go [] items

let run_point ?probe cfg scenario n =
  let cfg = Config.with_clients cfg n in
  let cfg = { cfg with Config.seed = seed_for cfg scenario n } in
  Run.run ?probe cfg scenario

let over_clients ?pool ?probe ?(notify = fun (_ : string) -> ()) cfg scenario ns =
  fan ?pool ?probe ~notify
    ~label:(fun n -> point_label scenario n)
    ns
    (fun ?probe n -> run_point ?probe cfg scenario n)

let grid ?pool ?probe ?(notify = fun (_ : string) -> ()) cfg scenarios ns =
  match ns with
  | [] -> List.map (fun scenario -> (scenario, [])) scenarios
  | _ ->
      (* Flatten to (scenario, clients) points so a team spans the whole
         grid rather than one series at a time. *)
      let points =
        List.concat_map (fun s -> List.map (fun n -> (s, n)) ns) scenarios
      in
      let ms =
        fan ?pool ?probe ~notify
          ~label:(fun (s, n) -> point_label s n)
          points
          (fun ?probe (s, n) -> run_point ?probe cfg s n)
      in
      List.map2 (fun s series -> (s, series)) scenarios (chunks (List.length ns) ms)

type replicated = {
  scenario : Scenario.t;
  clients : int;
  replicates : int;
  cov_mean : float;
  cov_std : float;
  delivered_mean : float;
  loss_mean : float;
  loss_std : float;
  timeout_dupack_mean : float;
}

let replicated ?pool ?probe ?(notify = fun (_ : string) -> ()) cfg scenario
    ~replicates ns =
  if replicates < 1 then invalid_arg "Sweep.replicated: replicates < 1";
  (* Fan over (clients, replicate) pairs, then fold each point's
     replicates into the summary accumulators sequentially in replicate
     order — the folds see the same values in the same order as the
     all-sequential path, so the records come out bit-identical. *)
  let points =
    List.concat_map (fun n -> List.init replicates (fun r -> (n, r + 1))) ns
  in
  let ms =
    fan ?pool ?probe ~notify
      ~label:(fun (n, r) -> Printf.sprintf "%s r=%d" (point_label scenario n) r)
      points
      (fun ?probe (n, r) ->
        let cfg = Config.with_clients cfg n in
        let seed = Int64.add (seed_for cfg scenario n) (Int64.of_int (r * 7919)) in
        Run.run ?probe { cfg with Config.seed = seed } scenario)
  in
  List.map2
    (fun n per_replicate ->
      let cov = Netstats.Welford.create () in
      let delivered = Netstats.Welford.create () in
      let loss = Netstats.Welford.create () in
      let ratio = Netstats.Welford.create () in
      List.iter
        (fun (m : Metrics.t) ->
          Netstats.Welford.add cov m.Metrics.cov;
          Netstats.Welford.add delivered (float_of_int m.Metrics.delivered);
          Netstats.Welford.add loss m.Metrics.loss_pct;
          Netstats.Welford.add ratio m.Metrics.timeout_dupack_ratio)
        per_replicate;
      {
        scenario;
        clients = n;
        replicates;
        cov_mean = Netstats.Welford.mean cov;
        cov_std = Netstats.Welford.std cov;
        delivered_mean = Netstats.Welford.mean delivered;
        loss_mean = Netstats.Welford.mean loss;
        loss_std = Netstats.Welford.std loss;
        timeout_dupack_mean = Netstats.Welford.mean ratio;
      })
    ns (chunks replicates ms)
