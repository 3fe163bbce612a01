(* Streaming multi-timescale burstiness estimators.

   A dyadic multi-resolution aggregator: per-bin arrival counts enter
   at level 0 (bins of [width] seconds from [origin]) and fold upward
   through doubling timescales. Level [j] sees the block sums over
   [2^j] consecutive base bins; each level keeps

   - Welford moments of its block sums (-> streaming c.o.v. and IDC
     at that timescale), and
   - the running sum of squared Haar details [left - right] over the
     pairs it forwards upward (-> an Abry-Veitch-style logscale
     diagram and a wavelet Hurst slope).

   State is O(levels) per aggregator: one pending unpaired block sum
   plus four running moments per level, all kept in flat float/int
   arrays so the hot path never allocates (a mutable float field in a
   mixed record would box on every store). Feeding one event is
   amortized O(1); closing a bin cascades at most [levels] deep.

   The [Osc] sub-module is the RED Hopf probe: an EWMA-detrended
   zero-crossing detector over sampled queue depths that reports
   oscillation frequency and relative amplitude. *)

type config = { levels : int }

let default_levels = 16

let default_config = { levels = default_levels }

(* Per-level layout: [fs] stride 4 = pending block sum, Welford mean,
   Welford m2, Haar energy sum; [ns] stride 3 = Welford count,
   has-pending flag, Haar detail count. *)
type t = {
  origin : float;
  width : float;
  levels : int;
  fs : float array;
  ns : int array;
  cur : float array; (* cur.(0): count in the open base bin *)
  mutable cur_bin : int; (* index of the open base bin *)
  mutable total : int; (* events observed (post-origin) *)
  mutable closed : int; (* base bins closed so far *)
}

let create ?(levels = default_levels) ~origin ~width () =
  if not (width > 0. && Float.is_finite width) then
    invalid_arg "Burst.create: width must be finite and > 0";
  if not (Float.is_finite origin) then
    invalid_arg "Burst.create: origin must be finite";
  if levels < 1 || levels > 40 then invalid_arg "Burst.create: bad levels";
  {
    origin;
    width;
    levels;
    fs = Array.make (4 * levels) 0.;
    ns = Array.make (3 * levels) 0;
    cur = [| 0. |];
    cur_bin = 0;
    total = 0;
    closed = 0;
  }

(* Fold one closed block sum into level [j]: Welford first (same
   update order as Netstats.Welford.add, so level-0 moments match
   Summary.of_array on the equivalent bin array exactly), then pair
   with the pending sum, accumulate the squared Haar detail, and
   cascade the pair's sum one level up. *)
let rec add_level t j x =
  let fb = 4 * j and ib = 3 * j in
  let n = t.ns.(ib) + 1 in
  t.ns.(ib) <- n;
  let mean = t.fs.(fb + 1) in
  let delta = x -. mean in
  let mean' = mean +. (delta /. float_of_int n) in
  t.fs.(fb + 1) <- mean';
  t.fs.(fb + 2) <- t.fs.(fb + 2) +. (delta *. (x -. mean'));
  if j + 1 < t.levels then begin
    if t.ns.(ib + 1) = 1 then begin
      let p = t.fs.(fb) in
      t.ns.(ib + 1) <- 0;
      let d = p -. x in
      t.fs.(fb + 3) <- t.fs.(fb + 3) +. (d *. d);
      t.ns.(ib + 2) <- t.ns.(ib + 2) + 1;
      add_level t (j + 1) (p +. x)
    end
    else begin
      t.fs.(fb) <- x;
      t.ns.(ib + 1) <- 1
    end
  end

let push t x =
  t.closed <- t.closed + 1;
  add_level t 0 x

let[@inline] close_upto t idx =
  while t.cur_bin < idx do
    push t t.cur.(0);
    t.cur.(0) <- 0.;
    t.cur_bin <- t.cur_bin + 1
  done

let observe t at =
  if at >= t.origin then begin
    let idx = int_of_float ((at -. t.origin) /. t.width) in
    if idx > t.cur_bin then close_upto t idx;
    (* Events for an already-closed bin (only possible after [advance])
       are dropped, matching Binned.counts truncation. *)
    if idx = t.cur_bin then begin
      t.cur.(0) <- t.cur.(0) +. 1.;
      t.total <- t.total + 1
    end
  end

(* The allocation-free twin of [observe] for the per-packet hot path:
   the engine's integer-nanosecond tick goes through the exact
   [float_of_int ns /. 1e9] conversion Time.to_sec performs, but as a
   local float the compiler keeps unboxed — calling [observe] with the
   converted value would box it on every event. Duplicated rather than
   shared so neither entry point pays a float argument box. *)
let observe_tick t ns =
  let at = float_of_int ns /. 1e9 in
  if at >= t.origin then begin
    let idx = int_of_float ((at -. t.origin) /. t.width) in
    if idx > t.cur_bin then close_upto t idx;
    if idx = t.cur_bin then begin
      t.cur.(0) <- t.cur.(0) +. 1.;
      t.total <- t.total + 1
    end
  end

(* Close every bin that ends at or before [upto] — the same
   [floor ((upto - origin) / width)] complete-bin rule as
   Netstats.Binned.num_complete_bins, zero-filling untouched bins. *)
let advance t ~upto =
  if upto > t.origin then
    close_upto t (int_of_float (floor ((upto -. t.origin) /. t.width)))

let levels t = t.levels

let bins t = t.closed

let total t = t.total

let check_level t j name =
  if j < 0 || j >= t.levels then invalid_arg ("Burst." ^ name ^ ": bad level")

let scale_width t j =
  check_level t j "scale_width";
  t.width *. float_of_int (1 lsl j)

let scale_count t j =
  check_level t j "scale_count";
  t.ns.(3 * j)

let scale_mean t j =
  check_level t j "scale_mean";
  if t.ns.(3 * j) = 0 then 0. else t.fs.((4 * j) + 1)

(* Sample variance, matching Welford.variance (0 below two blocks). *)
let scale_variance t j =
  check_level t j "scale_variance";
  let n = t.ns.(3 * j) in
  if n < 2 then 0. else t.fs.((4 * j) + 2) /. float_of_int (n - 1)

let cov t j =
  check_level t j "cov";
  let n = t.ns.(3 * j) in
  if n < 2 then None
  else
    let m = t.fs.((4 * j) + 1) in
    if m = 0. then None else Some (sqrt (scale_variance t j) /. m)

let idc t j =
  check_level t j "idc";
  let n = t.ns.(3 * j) in
  if n < 2 then None
  else
    let m = t.fs.((4 * j) + 1) in
    if m = 0. then None else Some (scale_variance t j /. m)

(* Mean squared Haar detail at octave [j] (1-based: the details formed
   when level [j-1] blocks pair). The raw detail is [left - right] of
   two sums of [2^(j-1)] bins; dividing by [2^j] gives the L2-normalized
   wavelet coefficient energy (the wavelet takes values +-2^(-j/2)). *)
let haar_count t j =
  if j < 1 || j >= t.levels then invalid_arg "Burst.haar_count: bad octave";
  t.ns.((3 * (j - 1)) + 2)

let haar_energy t j =
  if j < 1 || j >= t.levels then invalid_arg "Burst.haar_energy: bad octave";
  let n = t.ns.((3 * (j - 1)) + 2) in
  if n = 0 then None
  else
    Some (t.fs.((4 * (j - 1)) + 3) /. (float_of_int n *. float_of_int (1 lsl j)))

(* Octaves entering the logscale diagram need a handful of details for
   the mean energy to carry any signal. *)
let min_details = 4

let logscale t =
  let rec collect j acc =
    if j < 1 then acc
    else
      let acc =
        if haar_count t j >= min_details then
          match haar_energy t j with
          | Some e when e > 0. -> (j, log (e) /. log 2.) :: acc
          | _ -> acc
        else acc
      in
      collect (j - 1) acc
  in
  collect (t.levels - 1) []

(* Wavelet Hurst estimate: OLS slope [alpha] of log2 energy vs octave;
   for an LRD count process the energies scale as 2^(j (2H - 1)), so
   H = (alpha + 1) / 2, clamped into [0, 1]. White noise has flat
   energies -> H = 1/2. *)
let hurst_wavelet t =
  match logscale t with
  | [] | [ _ ] -> None
  | pts ->
      let xs = Array.of_list (List.map (fun (j, _) -> float_of_int j) pts) in
      let ys = Array.of_list (List.map snd pts) in
      let fit = Netstats.Regression.ols xs ys in
      let h = (fit.Netstats.Regression.slope +. 1.) /. 2. in
      Some (Stdlib.min 1. (Stdlib.max 0. h))

(* ------------------------------------------------------------------ *)
(* Oscillation detector: EWMA-detrended zero crossings.               *)

module Osc = struct
  (* The detector's tuning, fixed at the values [bench --only burst]
     checks against the Reynier/Hollot RED stability boundary: the EWMA
     tracking rate per sample, the hysteresis band as a fraction of the
     EWMA absolute residual, and the verdict's relative RMS amplitude
     and crossing-count thresholds. *)
  let gain = 0.02

  let deadband = 0.5

  let rel_threshold = 0.2

  let min_crossings = 8

  (* Float state lives in [fs] (mutable float record fields would box):
     0 EWMA baseline, 1 sum of squared residuals, 2 sum of the raw
     signal, 3 EWMA of |residual| (adaptive deadband), 4 first sample
     time, 5 last sample time. *)
  type t = {
    fs : float array;
    mutable n : int;
    mutable sign : int; (* -1 / 0 / +1, last side beyond the deadband *)
    mutable crossings : int;
  }

  let create () = { fs = Array.make 6 0.; n = 0; sign = 0; crossings = 0 }

  (* The tick converts with [Record.time_of_tick]'s (and [Time.to_sec]'s)
     arithmetic, and both floats stay local, so a sample boxes nothing. *)
  let sample o ~tick (cell : float array) =
    let t = float_of_int tick /. 1e9 in
    let x = cell.(0) in
    if o.n = 0 then begin
      o.fs.(0) <- x;
      o.fs.(4) <- t
    end
    else o.fs.(0) <- o.fs.(0) +. (gain *. (x -. o.fs.(0)));
    let r = x -. o.fs.(0) in
    o.fs.(1) <- o.fs.(1) +. (r *. r);
    o.fs.(2) <- o.fs.(2) +. x;
    o.fs.(3) <- o.fs.(3) +. (gain *. (abs_float r -. o.fs.(3)));
    let band = deadband *. o.fs.(3) in
    if r > band then begin
      if o.sign < 0 then o.crossings <- o.crossings + 1;
      o.sign <- 1
    end
    else if r < -.band then begin
      if o.sign > 0 then o.crossings <- o.crossings + 1;
      o.sign <- -1
    end;
    o.n <- o.n + 1;
    o.fs.(5) <- t

  let samples o = o.n

  let crossings o = o.crossings

  let mean_signal o = if o.n = 0 then 0. else o.fs.(2) /. float_of_int o.n

  let rms_residual o = if o.n = 0 then 0. else sqrt (o.fs.(1) /. float_of_int o.n)

  let rel_amplitude o =
    let m = mean_signal o in
    if m <= 0. then 0. else rms_residual o /. m

  (* A crossing is a half cycle: crossings / 2 full periods over the
     sampled window. *)
  let frequency_hz o =
    let span = o.fs.(5) -. o.fs.(4) in
    if span <= 0. then 0. else float_of_int o.crossings /. (2. *. span)

  let oscillating o =
    rel_amplitude o >= rel_threshold && o.crossings >= min_crossings
end

(* ------------------------------------------------------------------ *)
(* Frozen summaries: the queryable end-of-run view.                   *)

type scale_row = {
  level : int;
  scale_s : float;
  blocks : int;
  mean : float;
  s_cov : float option;
  s_idc : float option;
}

type osc_summary = {
  o_samples : int;
  o_mean : float;
  o_rms : float;
  o_rel_amplitude : float;
  o_crossings : int;
  o_frequency_hz : float;
  o_oscillating : bool;
}

type summary = {
  base_width_s : float;
  s_bins : int;
  s_total : int;
  scales : scale_row list;
  s_logscale : (int * float) list;
  s_hurst : float option;
  s_osc : osc_summary option;
}

let osc_summary o =
  {
    o_samples = Osc.samples o;
    o_mean = Osc.mean_signal o;
    o_rms = Osc.rms_residual o;
    o_rel_amplitude = Osc.rel_amplitude o;
    o_crossings = Osc.crossings o;
    o_frequency_hz = Osc.frequency_hz o;
    o_oscillating = Osc.oscillating o;
  }

let summary ?osc t =
  let rec rows j acc =
    if j < 0 then acc
    else
      let acc =
        if scale_count t j >= 2 then
          {
            level = j;
            scale_s = scale_width t j;
            blocks = scale_count t j;
            mean = scale_mean t j;
            s_cov = cov t j;
            s_idc = idc t j;
          }
          :: acc
        else acc
      in
      rows (j - 1) acc
  in
  {
    base_width_s = t.width;
    s_bins = t.closed;
    s_total = t.total;
    scales = rows (t.levels - 1) [];
    s_logscale = logscale t;
    s_hurst = hurst_wavelet t;
    s_osc = Option.map osc_summary osc;
  }

let json_opt = function None -> Json.Null | Some v -> Json.Float v

let osc_to_json o =
  Json.Obj
    [
      ("samples", Json.Int o.o_samples);
      ("mean", Json.Float o.o_mean);
      ("rms_residual", Json.Float o.o_rms);
      ("rel_amplitude", Json.Float o.o_rel_amplitude);
      ("crossings", Json.Int o.o_crossings);
      ("frequency_hz", Json.Float o.o_frequency_hz);
      ("oscillating", Json.Bool o.o_oscillating);
    ]

let summary_to_json s =
  Json.Obj
    [
      ("base_width_s", Json.Float s.base_width_s);
      ("bins", Json.Int s.s_bins);
      ("events", Json.Int s.s_total);
      ( "scales",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("level", Json.Int r.level);
                   ("scale_s", Json.Float r.scale_s);
                   ("blocks", Json.Int r.blocks);
                   ("mean", Json.Float r.mean);
                   ("cov", json_opt r.s_cov);
                   ("idc", json_opt r.s_idc);
                 ])
             s.scales) );
      ( "logscale",
        Json.List
          (List.map
             (fun (j, e) ->
               Json.Obj
                 [ ("octave", Json.Int j); ("log2_energy", Json.Float e) ])
             s.s_logscale) );
      ("hurst_wavelet", json_opt s.s_hurst);
      ("osc", match s.s_osc with None -> Json.Null | Some o -> osc_to_json o);
    ]

let pp_summary ppf s =
  Format.fprintf ppf
    "burst: %d events in %d bins of %gs across %d timescales@."
    s.s_total s.s_bins s.base_width_s (List.length s.scales);
  Format.fprintf ppf "  %10s %8s %10s %10s %10s@." "scale_s" "blocks" "mean"
    "cov" "idc";
  List.iter
    (fun r ->
      let f = function None -> "-" | Some v -> Printf.sprintf "%.4f" v in
      Format.fprintf ppf "  %10g %8d %10.3f %10s %10s@." r.scale_s r.blocks
        r.mean (f r.s_cov) (f r.s_idc))
    s.scales;
  (match s.s_logscale with
  | [] -> ()
  | pts ->
      Format.fprintf ppf "  logscale (octave, log2 energy):";
      List.iter (fun (j, e) -> Format.fprintf ppf " %d:%.2f" j e) pts;
      Format.fprintf ppf "@.");
  (match s.s_hurst with
  | Some h -> Format.fprintf ppf "  hurst (wavelet) = %.3f@." h
  | None -> ());
  match s.s_osc with
  | None -> ()
  | Some o ->
      Format.fprintf ppf
        "  osc: %s (rel amplitude %.3f, %d crossings, %.3f Hz over %d \
         samples, mean %.2f)@."
        (if o.o_oscillating then "OSCILLATING" else "quiet")
        o.o_rel_amplitude o.o_crossings o.o_frequency_hz o.o_samples o.o_mean

(* ------------------------------------------------------------------ *)
(* Registry export.                                                   *)

let export registry ~run s =
  let set ?labels name help v =
    let labels = (("run", run) :: Option.value labels ~default:[]) in
    Registry.set (Registry.gauge registry ~labels ~help name) v
  in
  set "burst_bins" "Closed base bins in the burst aggregator"
    (float_of_int s.s_bins);
  List.iter
    (fun r ->
      let labels = [ ("scale_s", Printf.sprintf "%g" r.scale_s) ] in
      (match r.s_cov with
      | Some v ->
          set ~labels "burst_cov" "Streaming c.o.v. of arrivals per timescale"
            v
      | None -> ());
      match r.s_idc with
      | Some v ->
          set ~labels "burst_idc"
            "Streaming index of dispersion for counts per timescale" v
      | None -> ())
    s.scales;
  (match s.s_hurst with
  | Some h ->
      set "burst_hurst_wavelet" "Online wavelet (logscale-diagram) Hurst slope"
        h
  | None -> ());
  match s.s_osc with
  | None -> ()
  | Some o ->
      set "burst_osc_rel_amplitude"
        "RMS queue oscillation amplitude relative to the mean"
        o.o_rel_amplitude;
      set "burst_osc_frequency_hz" "Queue oscillation frequency" o.o_frequency_hz;
      set "burst_osc_crossings" "Detrended queue zero crossings"
        (float_of_int o.o_crossings);
      set "burst_oscillating" "1 when the oscillation detector fired"
        (if o.o_oscillating then 1. else 0.)

(* ------------------------------------------------------------------ *)
(* Flight-recorder emission: one record per populated scale plus one
   Hurst and two oscillation records, stamped at the closing tick.    *)

let record_summary lane ~tick ~sid s =
  List.iter
    (fun r ->
      (match r.s_cov with
      | Some v ->
          Recorder.record lane ~tick ~kind:Record.burst_cov ~flow:(-1)
            ~a:r.level ~b:(Record.float_hi v) ~c:(Record.float_lo v) ~sid
            ~depth:r.blocks
      | None -> ());
      match r.s_idc with
      | Some v ->
          Recorder.record lane ~tick ~kind:Record.burst_idc ~flow:(-1)
            ~a:r.level ~b:(Record.float_hi v) ~c:(Record.float_lo v) ~sid
            ~depth:r.blocks
      | None -> ())
    s.scales;
  (match s.s_hurst with
  | Some h ->
      Recorder.record lane ~tick ~kind:Record.burst_hurst ~flow:(-1)
        ~a:(List.length s.s_logscale) ~b:(Record.float_hi h)
        ~c:(Record.float_lo h) ~sid ~depth:0
  | None -> ());
  match s.s_osc with
  | None -> ()
  | Some o ->
      Recorder.record lane ~tick ~kind:Record.burst_osc_amp ~flow:(-1)
        ~a:o.o_crossings
        ~b:(Record.float_hi o.o_rel_amplitude)
        ~c:(Record.float_lo o.o_rel_amplitude)
        ~sid
        ~depth:(if o.o_oscillating then 1 else 0);
      Recorder.record lane ~tick ~kind:Record.burst_osc_freq ~flow:(-1)
        ~a:o.o_crossings
        ~b:(Record.float_hi o.o_frequency_hz)
        ~c:(Record.float_lo o.o_frequency_hz)
        ~sid
        ~depth:(if o.o_oscillating then 1 else 0)
