(* burstsim benchmark.

     main.exe --workload W --seed S --seconds T --trace 0|1 [--smoke]
              [--out-dir DIR]
       Measure one workload in this process. --trace 0 times reps for T
       seconds and reports the end-to-end metrics; --trace 1 runs one
       untraced and one traced rep and reports the per-layer metrics.
       The last stdout line is a JSON summary; DIR/W.trace<0|1>.json
       holds the full result and DIR/W.spans.json the traced rep's
       spans.

     main.exe run [--seed S] [--seconds T] [--smoke] [--out-dir DIR]
                  [--bench BENCHMARK.json]
       A set: every workload in its own child process, untraced then
       traced, merged into DIR/results.json and DIR/trace.json; fails
       when a result lacks a metric BENCHMARK.json names.

     main.exe compare A.json B.json [--bench BENCHMARK.json]
       Verdict per workload x end-to-end metric from two sets.

   Every command exits non-zero when an output check fails (or, for
   compare, when a metric got worse). *)

module J = Burstcore.Json

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Python's [statistics.quantiles xs ~n:4] (exclusive method). *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then
    let x = median xs in
    (x, x)
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 3)

(* ------------------------------------------------------------------ *)
(* Machine descriptor                                                  *)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file ->
            close_in ic;
            List.rev acc
      in
      go []

let status_field name =
  List.find_map
    (fun l ->
      match String.index_opt l ':' with
      | Some i when String.sub l 0 i = name ->
          Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
      | _ -> None)
    (read_lines "/proc/self/status")

(* CPUs this process may run on, like nproc: "0-1,4" -> 3. *)
let nproc () =
  match status_field "Cpus_allowed_list" with
  | None -> Domain.recommended_domain_count ()
  | Some s ->
      List.fold_left
        (fun acc part ->
          match String.split_on_char '-' (String.trim part) with
          | [ a ] when a <> "" -> acc + 1
          | [ a; b ] -> acc + int_of_string b - int_of_string a + 1
          | _ -> acc)
        0 (String.split_on_char ',' s)

let peak_rss_mb () =
  match status_field "VmHWM" with
  | Some v -> Scanf.sscanf v "%d kB" (fun kb -> float_of_int kb /. 1024.)
  | None -> 0.

let machine () =
  J.Obj
    [
      ("nproc", J.Int (nproc ()));
      ("recommended_domain_count", J.Int (Domain.recommended_domain_count ()));
      ("ocaml_version", J.String Sys.ocaml_version);
      ("os_type", J.String Sys.os_type);
    ]

(* ------------------------------------------------------------------ *)
(* Measuring one workload                                              *)

type metric = { name : string; unit_ : string; values : float list }

let metric_json m =
  let q1, q3 = quartiles m.values in
  J.Obj
    [
      ("unit", J.String m.unit_);
      ("median", J.Float (median m.values));
      ("q1", J.Float q1);
      ("q3", J.Float q3);
      ("iqr", J.Float (q3 -. q1));
      ("n", J.Int (List.length m.values));
      ("values", J.List (List.map (fun v -> J.Float v) m.values));
    ]

let print_metric m =
  let q1, q3 = quartiles m.values in
  Printf.printf "  %-28s %14.6g %-6s iqr %-10.4g n %d\n" m.name (median m.values)
    m.unit_ (q3 -. q1) (List.length m.values)

type outcome = {
  metrics : metric list;
  reps : int;
  tally : Workload.tally;
  digest : string;
}

(* Run one untimed warm-up rep where the workload needs one, then time
   reps until [seconds] have passed. Before each rep come set-up passes
   worth 5 % of the rep before it (at least one, at least five in all),
   so that [setup_s], like [wall_s], is a median over the whole run and
   not over its first seconds, which the host's slow stretches can fill.
   A rep starts while it can be expected to end before the deadline, so a
   run takes about [seconds] whatever the length of its reps. *)
let measure (w : Workload.t) ~seed ~seconds ~smoke =
  let runs = Workload.runs w ~seed ~smoke in
  let t_start = now () in
  let tally = Workload.tally () in
  let setup_runs = List.map Workload.truncate runs in
  (* One untimed pass first: the process's first large allocations fault
     their pages in, a cost later set-ups in the process do not pay. *)
  ignore (Layers.timed_rep w setup_runs);
  let setup = ref [] and walls = ref [] and digests = ref [] in
  let min_setups = if smoke then 1 else 5 in
  (* Peak RSS is read after the first full rep, which follows the same
     passes on every run; later reps add only fragmentation, which varies
     with how many set-up passes the timing let in between them. *)
  let rss = ref 0. in
  let rep () =
    let dt, os = Layers.timed_rep w runs in
    if !rss = 0. then rss := peak_rss_mb ();
    digests := Workload.digest os :: !digests;
    Workload.count ~smoke w tally os;
    dt
  in
  let last = ref (if Workload.warms_up w && not smoke then rep () else 0.) in
  while
    !walls = []
    || ((not smoke) && now () -. t_start +. (1.05 *. median !walls) <= seconds)
  do
    let t0 = now () and passes = ref 0 in
    while
      !passes = 0
      || List.length !setup < min_setups
      || now () -. t0 < 0.05 *. !last
    do
      let dt, os = Layers.timed_rep w setup_runs in
      setup := dt :: !setup;
      incr passes;
      Workload.count ~check:false ~smoke w tally os
    done;
    last := rep ();
    walls := !last :: !walls
  done;
  let digest = List.hd !digests in
  if List.exists (fun d -> not (String.equal d digest)) !digests then
    Workload.fail tally "reps of one seed gave different digests";
  let setup_s = median !setup in
  let sim_s = Workload.sim_seconds runs in
  let walls = List.rev !walls in
  {
    metrics =
      [
        { name = "wall_s"; unit_ = "s"; values = walls };
        { name = "setup_s"; unit_ = "s"; values = List.rev !setup };
        {
          name = "sim_s_per_wall_s";
          unit_ = "s/s";
          values =
            List.map
              (fun wall -> sim_s /. Float.max 1e-3 (wall -. setup_s))
              walls;
        };
        { name = "peak_rss_mb"; unit_ = "MB"; values = [ !rss ] };
        {
          name = "failed_frac";
          unit_ = "ratio";
          values =
            [ float_of_int tally.failed /. float_of_int (max 1 tally.attempted) ];
        };
      ];
    reps = List.length walls;
    tally;
    digest;
  }

let trace (w : Workload.t) ~seed ~smoke =
  let metrics, tally, digest = Layers.trace w ~seed ~smoke in
  {
    metrics =
      List.map (fun (name, unit_, v) -> { name; unit_; values = [ v ] }) metrics;
    reps = 1;
    tally;
    digest;
  }

let write_json path j =
  let oc = open_out_bin path in
  output_string oc (J.to_string j);
  output_char oc '\n';
  close_out oc

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let result_path dir w traced =
  Filename.concat dir (Printf.sprintf "%s.trace%d.json" w (if traced then 1 else 0))

let spans_path dir w = Filename.concat dir (w ^ ".spans.json")

let one (w : Workload.t) ~seed ~seconds ~traced ~smoke ~out_dir =
  Printf.printf "workload %s seed %d (%s)\n%!" w.name seed
    (if traced then "traced rep" else Printf.sprintf "%gs of reps" seconds);
  let o =
    if traced then trace w ~seed ~smoke else measure w ~seed ~seconds ~smoke
  in
  let t = o.tally in
  List.iter print_metric o.metrics;
  Printf.printf "  digest %s  attempted %d  failed %d\n" o.digest t.attempted
    t.failed;
  List.iter (fun f -> Printf.printf "  CHECK FAILED: %s\n" f) t.failures;
  let correct = t.failures = [] in
  mkdir_p out_dir;
  write_json (result_path out_dir w.name traced)
    (J.Obj
       [
         ("workload", J.String w.name);
         ("seed", J.Int seed);
         ("smoke", J.Bool smoke);
         ("traced", J.Bool traced);
         ("machine", machine ());
         ("reps", J.Int o.reps);
         ("correct", J.Bool correct);
         ("attempted", J.Int t.attempted);
         ("failed", J.Int t.failed);
         ("digest", J.String o.digest);
         ("failures", J.List (List.map (fun f -> J.String f) t.failures));
         ("metrics", J.Obj (List.map (fun m -> (m.name, metric_json m)) o.metrics));
       ]);
  if traced then
    write_json (spans_path out_dir w.name)
      (Layers.spans_json ~pid:(Unix.getpid ()) ~process:w.name);
  (* The last line: medians of the metrics BENCHMARK.json lists for this
     mode (failed_frac travels as attempted/failed instead). *)
  let summary =
    List.filter_map
      (fun m ->
        if m.name = "failed_frac" then None
        else
          let value = J.Float (median m.values) in
          Some (m.name, J.Obj [ ("value", value); ("unit", J.String m.unit_) ]))
      o.metrics
  in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Int t.attempted);
            ("failed", J.Int t.failed);
            ("metrics", J.Obj summary);
          ]));
  correct

(* ------------------------------------------------------------------ *)
(* A set: every workload in its own child process                      *)

let read_json path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match J.parse s with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

let member k j = Option.value (J.member k j) ~default:J.Null

(* Metric names BENCHMARK.json lists under [key]. *)
let names_of bench key =
  match member key (read_json bench) with
  | J.List ms ->
      List.filter_map
        (fun m -> match member "name" m with J.String s -> Some s | _ -> None)
        ms
  | _ -> failwith (Printf.sprintf "%s: no %s list" bench key)

let run_set ~bench ~seed ~seconds ~smoke ~out_dir =
  let e2e_names = names_of bench "end_to_end"
  and layer_names = names_of bench "per_layer" in
  mkdir_p out_dir;
  let child w traced =
    let result = result_path out_dir w traced in
    if Sys.file_exists result then Sys.remove result;
    let args =
      [
        Sys.executable_name; "--workload"; w; "--seed"; string_of_int seed;
        "--seconds"; Printf.sprintf "%g" seconds; "--trace";
        (if traced then "1" else "0"); "--out-dir"; out_dir;
      ]
      @ if smoke then [ "--smoke" ] else []
    in
    flush_all ();
    let pid =
      Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin
        Unix.stdout Unix.stderr
    in
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> true
    | _ -> false
  in
  let ok = ref true in
  let workloads =
    List.map
      (fun (w : Workload.t) ->
        let e2e_ok = child w.name false in
        let layers_ok = child w.name true in
        ok := !ok && e2e_ok && layers_ok;
        let load traced names =
          let p = result_path out_dir w.name traced in
          let j = if Sys.file_exists p then read_json p else J.Null in
          let missing =
            List.filter (fun n -> member n (member "metrics" j) = J.Null) names
          in
          if missing <> [] then begin
            ok := false;
            Printf.printf "%s: missing metrics %s\n" w.name
              (String.concat ", " missing)
          end;
          j
        in
        let e2e = load false e2e_names in
        let layers = load true layer_names in
        (w.name, J.Obj [ ("e2e", e2e); ("layers", layers) ]))
      Workload.all
  in
  write_json (Filename.concat out_dir "results.json")
    (J.Obj
       [
         ("machine", machine ());
         ("seed", J.Int seed);
         ("seconds", J.Float seconds);
         ("smoke", J.Bool smoke);
         ("workloads", J.Obj workloads);
       ]);
  (* One trace file: the workloads' span lists, each under its own pid. *)
  let events =
    List.concat_map
      (fun (w : Workload.t) ->
        let p = spans_path out_dir w.name in
        if not (Sys.file_exists p) then []
        else
          match member "traceEvents" (read_json p) with
          | J.List evs -> evs
          | _ -> [])
      Workload.all
  in
  write_json (Filename.concat out_dir "trace.json")
    (J.Obj [ ("traceEvents", J.List events) ]);
  Printf.printf "wrote %s and %s\n"
    (Filename.concat out_dir "results.json")
    (Filename.concat out_dir "trace.json");
  Printf.printf "set %s: %d workloads, %d end-to-end and %d per-layer metrics each\n"
    (if !ok then "ok" else "FAILED")
    (List.length Workload.all) (List.length e2e_names) (List.length layer_names);
  !ok

(* ------------------------------------------------------------------ *)
(* compare                                                             *)

type bound = { bname : string; lower_better : bool; bound : float }

let bounds_of bench =
  match member "end_to_end" (read_json bench) with
  | J.List ms ->
      List.map
        (fun m ->
          let str k = match member k m with J.String s -> s | _ -> "" in
          {
            bname = str "name";
            lower_better = str "better" = "lower";
            bound = Option.value (J.to_float (member "bound" m)) ~default:0.;
          })
        ms
  | _ -> failwith (bench ^ ": no end_to_end list")

let stat j k = Option.value (J.to_float (member k j)) ~default:Float.nan

(* [worse] is the change in the metric's bad direction, as a share of
   A's median; [spread] the larger IQR/median of the two sides. *)
let verdict b ma mb =
  let a = stat ma "median" and bv = stat mb "median" in
  let worse = (if b.lower_better then bv -. a else a -. bv) /. Float.abs a in
  let spread =
    Float.max (stat ma "iqr" /. Float.abs a) (stat mb "iqr" /. Float.abs bv)
  in
  if spread > b.bound then "unresolved"
  else if worse > b.bound then "worse"
  else if worse < -.b.bound then "better"
  else "same"

let compare_sets ~bench a_path b_path =
  let bounds = bounds_of bench in
  let a = member "workloads" (read_json a_path)
  and b = member "workloads" (read_json b_path) in
  let metrics side w = member "metrics" (member "e2e" (member w side)) in
  let worse = ref false in
  Printf.printf "%-22s %-18s %12s %10s %12s %10s  %s\n" "workload" "metric"
    "A median" "A iqr" "B median" "B iqr" "verdict";
  List.iter
    (fun (w : Workload.t) ->
      let ma = metrics a w.name and mb = metrics b w.name in
      let row name v =
        let x = member name ma and y = member name mb in
        Printf.printf "%-22s %-18s %12.6g %10.4g %12.6g %10.4g  %s\n" w.name name
          (stat x "median") (stat x "iqr") (stat y "median") (stat y "iqr") v;
        if v = "worse" then worse := true
      in
      if ma = J.Null || mb = J.Null then
        Printf.printf "%-22s missing from one set\n" w.name
      else begin
        List.iter
          (fun b -> row b.bname (verdict b (member b.bname ma) (member b.bname mb)))
          bounds;
        (* failed_frac has no spread and a bound of zero: any rise is a
           regression *)
        let fa = stat (member "failed_frac" ma) "median"
        and fb = stat (member "failed_frac" mb) "median" in
        row "failed_frac"
          (if fb > fa then "worse" else if fb < fa then "better" else "same")
      end)
    Workload.all;
  not !worse

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let usage =
  "main.exe --workload W --seed S --seconds T --trace 0|1 [--smoke] [--out-dir DIR]\n\
   main.exe run [--seed S] [--seconds T] [--smoke] [--out-dir DIR] [--bench FILE]\n\
   main.exe compare A.json B.json [--bench BENCHMARK.json]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 55. and traced = ref 0 in
  let smoke = ref false and out_dir = ref "benchmark/out" in
  let bench = ref "BENCHMARK.json" and anon = ref [] in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "W workload name");
      ("--seed", Arg.Set_int seed, "S input seed");
      ("--seconds", Arg.Set_float seconds, "T seconds of reps");
      ("--trace", Arg.Set_int traced, "0|1 end-to-end or per-layer metrics");
      ("--smoke", Arg.Set smoke, " tiny horizons, one rep");
      ("--out-dir", Arg.Set_string out_dir, "DIR result files");
      ("--bench", Arg.Set_string bench, "FILE metric names and bounds");
    ]
  in
  (try Arg.parse_argv Sys.argv specs (fun a -> anon := !anon @ [ a ]) usage with
  | Arg.Bad msg | Arg.Help msg ->
      prerr_string msg;
      exit 2);
  let ok =
    match !anon with
    | [ "run" ] ->
        run_set ~bench:!bench ~seed:!seed ~seconds:!seconds ~smoke:!smoke
          ~out_dir:!out_dir
    | [ "compare"; a; b ] -> compare_sets ~bench:!bench a b
    | [] -> (
        match Workload.find !workload with
        | Some w when !traced = 0 || !traced = 1 ->
            one w ~seed:!seed ~seconds:!seconds ~traced:(!traced = 1)
              ~smoke:!smoke ~out_dir:!out_dir
        | _ ->
            prerr_endline usage;
            exit 2)
    | _ ->
        prerr_endline usage;
        exit 2
  in
  exit (if ok then 0 else 1)
