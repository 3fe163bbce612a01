(* Tests for the statistics library. *)

open Netstats

let check_float = Alcotest.(check (float 1e-9))
let check_close tol = Alcotest.(check (float tol))

(* ------------------------------------------------------------------ *)
(* Welford *)

let direct_mean xs = Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

let direct_variance xs =
  let m = direct_mean xs in
  let n = Array.length xs in
  Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. xs /. float_of_int (n - 1)

let welford_matches_direct () =
  let xs = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  let w = Welford.create () in
  Array.iter (Welford.add w) xs;
  check_close 1e-9 "mean" (direct_mean xs) (Welford.mean w);
  check_close 1e-9 "variance" (direct_variance xs) (Welford.variance w);
  check_float "min" 2. (Welford.min w);
  check_float "max" 9. (Welford.max w);
  check_float "sum" 40. (Welford.sum w);
  Alcotest.(check int) "count" 8 (Welford.count w)

let welford_empty_and_single () =
  let w = Welford.create () in
  check_float "empty mean" 0. (Welford.mean w);
  check_float "empty variance" 0. (Welford.variance w);
  Welford.add w 5.;
  check_float "single mean" 5. (Welford.mean w);
  check_float "single variance" 0. (Welford.variance w);
  check_float "single cov" 0. (Welford.cov w)

let welford_cov () =
  let w = Welford.create () in
  List.iter (Welford.add w) [ 1.; 1.; 1.; 1. ];
  check_float "constant cov 0" 0. (Welford.cov w);
  let w2 = Welford.create () in
  List.iter (Welford.add w2) [ 0.; 2. ];
  (* mean 1, sample std = sqrt(2) *)
  check_close 1e-9 "cov" (sqrt 2.) (Welford.cov w2)

let welford_merge_property =
  QCheck.Test.make ~name:"welford merge == bulk add" ~count:200
    QCheck.(pair (list (float_bound_exclusive 100.)) (list (float_bound_exclusive 100.)))
    (fun (xs, ys) ->
      QCheck.assume (xs <> [] || ys <> []);
      let wa = Welford.create () and wb = Welford.create () and wall = Welford.create () in
      List.iter (Welford.add wa) xs;
      List.iter (Welford.add wb) ys;
      List.iter (Welford.add wall) (xs @ ys);
      let merged = Welford.merge wa wb in
      let close a b = Float.abs (a -. b) < 1e-6 *. (1. +. Float.abs a) in
      Welford.count merged = Welford.count wall
      && close (Welford.mean merged) (Welford.mean wall)
      && close (Welford.variance merged) (Welford.variance wall))

let welford_population_variance () =
  let w = Welford.create () in
  List.iter (Welford.add w) [ 1.; 3. ];
  check_float "population" 1. (Welford.variance_population w);
  check_float "sample" 2. (Welford.variance w)

(* ------------------------------------------------------------------ *)
(* Summary and quantiles *)

let summary_basic () =
  let s = Summary.of_list [ 1.; 2.; 3.; 4. ] in
  check_float "mean" 2.5 s.Summary.mean;
  check_float "min" 1. s.Summary.min;
  check_float "max" 4. s.Summary.max;
  check_float "sum" 10. s.Summary.sum;
  Alcotest.(check int) "count" 4 s.Summary.count

let summary_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Summary.of_array: empty")
    (fun () -> ignore (Summary.of_array [||]))

let quantile_interpolation () =
  let xs = [| 10.; 20.; 30.; 40. |] in
  check_float "q0" 10. (Summary.quantile xs 0.);
  check_float "q1" 40. (Summary.quantile xs 1.);
  check_float "median" 25. (Summary.median xs);
  check_float "q0.25" 17.5 (Summary.quantile xs 0.25)

let quantile_unsorted_input () =
  let xs = [| 40.; 10.; 30.; 20. |] in
  check_float "median of unsorted" 25. (Summary.median xs);
  (* input untouched *)
  Alcotest.(check (float 0.)) "not mutated" 40. xs.(0)

(* ------------------------------------------------------------------ *)
(* Binned *)

let binned_counts () =
  let b = Binned.create ~origin:10. ~width:1. () in
  List.iter (Binned.record b) [ 10.1; 10.9; 11.5; 13.2; 9.0 (* ignored *) ];
  Alcotest.(check int) "total excludes pre-origin" 4 (Binned.total b);
  let counts = Binned.counts b ~upto:14. in
  Alcotest.(check int) "4 complete bins" 4 (Array.length counts);
  Alcotest.(check (array (float 0.))) "per-bin" [| 2.; 1.; 0.; 1. |] counts

let binned_partial_bin_excluded () =
  let b = Binned.create ~origin:0. ~width:1. () in
  Binned.record b 0.5;
  Binned.record b 1.5;
  let counts = Binned.counts b ~upto:1.7 in
  Alcotest.(check int) "only complete bins" 1 (Array.length counts);
  Alcotest.(check (float 0.)) "first bin" 1. counts.(0)

let binned_record_many () =
  let b = Binned.create ~origin:0. ~width:0.5 () in
  Binned.record_many b 0.2 7;
  Alcotest.(check (array (float 0.))) "bulk" [| 7. |] (Binned.counts b ~upto:0.5)

let binned_poisson_cov_property () =
  (* Counts of a Poisson process over bins of width w have cov ~ 1/sqrt(rate*w). *)
  let rng = Sim_engine.Rng.create ~seed:99L in
  let b = Binned.create ~origin:0. ~width:1. () in
  let rate = 50. in
  let t = ref 0. in
  while !t < 2000. do
    t := !t +. Sim_engine.Rng.exponential rng ~mean:(1. /. rate);
    if !t < 2000. then Binned.record b !t
  done;
  let s = Summary.of_array (Binned.counts b ~upto:2000.) in
  check_close 0.5 "mean per bin" rate s.Summary.mean;
  check_close 0.02 "cov ~ 1/sqrt(50)" (1. /. sqrt rate) s.Summary.cov

(* ------------------------------------------------------------------ *)
(* Series *)

let series_basic () =
  let s = Series.create () in
  Series.add s 0. 1.;
  Series.add s 1. 2.;
  Series.add s 1. 3.;
  (* same time allowed *)
  Series.add s 2. 4.;
  Alcotest.(check int) "length" 4 (Series.length s);
  Alcotest.(check (array (float 0.))) "times" [| 0.; 1.; 1.; 2. |] (Series.times s);
  Alcotest.(check (array (float 0.))) "values" [| 1.; 2.; 3.; 4. |] (Series.values s)

let series_rejects_backwards () =
  let s = Series.create () in
  Series.add s 5. 1.;
  Alcotest.check_raises "backwards" (Invalid_argument "Series.add: time went backwards")
    (fun () -> Series.add s 4. 1.)

let series_resample_zoh () =
  let s = Series.create () in
  Series.add s 0. 1.;
  Series.add s 1. 5.;
  Series.add s 2.5 7.;
  let r = Series.resample s ~dt:1. ~upto:4. in
  Alcotest.(check (array (float 0.))) "zoh" [| 1.; 5.; 5.; 7. |] r

let series_between () =
  let s = Series.create () in
  List.iter (fun (t, v) -> Series.add s t v) [ (0., 1.); (1., 2.); (2., 3.); (3., 4.) ];
  let got = Series.between s 1. 3. in
  Alcotest.(check int) "two samples" 2 (List.length got);
  Alcotest.(check (float 0.)) "first" 2. (snd (List.hd got))

(* ------------------------------------------------------------------ *)
(* Regression *)

let regression_exact_line () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  let ys = Array.map (fun x -> (2. *. x) +. 1.) xs in
  let fit = Regression.ols xs ys in
  check_close 1e-9 "slope" 2. fit.Regression.slope;
  check_close 1e-9 "intercept" 1. fit.Regression.intercept;
  check_close 1e-9 "r2" 1. fit.Regression.r2

let regression_errors () =
  Alcotest.check_raises "length" (Invalid_argument "Regression.ols: length mismatch")
    (fun () -> ignore (Regression.ols [| 1. |] [| 1.; 2. |]));
  Alcotest.check_raises "too few" (Invalid_argument "Regression.ols: need at least 2 points")
    (fun () -> ignore (Regression.ols [| 1. |] [| 1. |]));
  Alcotest.check_raises "degenerate x" (Invalid_argument "Regression.ols: all x equal")
    (fun () -> ignore (Regression.ols [| 1.; 1. |] [| 1.; 2. |]))

(* ------------------------------------------------------------------ *)
(* Correlation *)

let pearson_perfect () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  let ys = Array.map (fun x -> (3. *. x) +. 1.) xs in
  check_close 1e-9 "corr +1" 1. (Correlation.pearson xs ys);
  let neg = Array.map (fun x -> -.x) xs in
  check_close 1e-9 "corr -1" (-1.) (Correlation.pearson xs neg)

let pearson_constant_is_zero () =
  check_float "constant" 0. (Correlation.pearson [| 1.; 1.; 1. |] [| 1.; 2.; 3. |])

let pearson_independent_near_zero () =
  let rng = Sim_engine.Rng.create ~seed:77L in
  let xs = Array.init 5000 (fun _ -> Sim_engine.Rng.float rng) in
  let ys = Array.init 5000 (fun _ -> Sim_engine.Rng.float rng) in
  Alcotest.(check bool) "near zero" true (Float.abs (Correlation.pearson xs ys) < 0.05)

let pearson_errors () =
  Alcotest.check_raises "mismatch" (Invalid_argument "Correlation.pearson: length mismatch")
    (fun () -> ignore (Correlation.pearson [| 1. |] [| 1.; 2. |]));
  Alcotest.check_raises "short" (Invalid_argument "Correlation.pearson: need at least 2 samples")
    (fun () -> ignore (Correlation.pearson [| 1. |] [| 1. |]))

let mean_pairwise_sync () =
  let base = [| 1.; 5.; 2.; 8.; 3. |] in
  let rows = [| base; Array.copy base; Array.copy base |] in
  check_close 1e-9 "identical rows" 1. (Correlation.mean_pairwise rows);
  let rng = Sim_engine.Rng.create ~seed:78L in
  let indep =
    Array.init 6 (fun _ -> Array.init 2000 (fun _ -> Sim_engine.Rng.float rng))
  in
  Alcotest.(check bool) "independent rows near 0" true
    (Float.abs (Correlation.mean_pairwise indep) < 0.05)

let cross_correlation_lag () =
  (* ys is xs shifted by 2: peak correlation at lag 2. *)
  let n = 200 in
  let rng = Sim_engine.Rng.create ~seed:79L in
  let xs = Array.init n (fun _ -> Sim_engine.Rng.float rng) in
  let ys = Array.init n (fun i -> if i >= 2 then xs.(i - 2) else 0.) in
  (* xs(t) matches ys(t+2), so the peak is at lag 2 of (xs, ys). *)
  let cc = Correlation.cross_correlation xs ys 4 in
  Alcotest.(check bool) "peak at lag 2" true
    (cc.(2) > 0.9 && cc.(2) > cc.(0) && cc.(2) > cc.(1))

(* ------------------------------------------------------------------ *)
(* Histogram *)

let histogram_basic () =
  let h = Histogram.create ~lo:0. ~hi:10. ~bins:5 in
  List.iter (Histogram.add h) [ -1.; 0.; 1.9; 2.; 9.9; 10.; 11. ];
  Alcotest.(check int) "count" 7 (Histogram.count h);
  Alcotest.(check int) "underflow" 1 (Histogram.underflow h);
  Alcotest.(check int) "overflow" 2 (Histogram.overflow h);
  Alcotest.(check (array int)) "bins" [| 2; 1; 0; 0; 1 |] (Histogram.bin_counts h);
  Alcotest.(check int) "edges" 6 (Array.length (Histogram.bin_edges h))

(* ------------------------------------------------------------------ *)
(* Batch means *)

let batch_means_iid_coverage () =
  (* iid uniform noise: the batch-means interval should bracket the true
     cov (std/mean of U(0,1) = (1/sqrt(12))/0.5 ~ 0.577). *)
  let rng = Sim_engine.Rng.create ~seed:61L in
  let xs = Array.init 5000 (fun _ -> Sim_engine.Rng.float rng) in
  let iv = Batch_means.cov_interval xs in
  let truth = 1. /. sqrt 12. /. 0.5 in
  Alcotest.(check bool)
    (Printf.sprintf "interval [%.3f +- %.3f] covers %.3f" iv.Batch_means.mean_of_batches
       iv.Batch_means.half_width_95 truth)
    true
    (Float.abs (iv.Batch_means.mean_of_batches -. truth) < 2. *. iv.Batch_means.half_width_95);
  Alcotest.(check bool) "half width sane" true
    (iv.Batch_means.half_width_95 > 0. && iv.Batch_means.half_width_95 < 0.1)

let batch_means_constant_series () =
  let iv = Batch_means.analyze ~f:(fun b -> b.(0)) (Array.make 100 7.) in
  Alcotest.(check (float 1e-9)) "point" 7. iv.Batch_means.point;
  Alcotest.(check (float 1e-9)) "zero width" 0. iv.Batch_means.half_width_95

let batch_means_validation () =
  Alcotest.check_raises "too short"
    (Invalid_argument "Batch_means.analyze: fewer than 2 observations per batch")
    (fun () -> ignore (Batch_means.cov_interval (Array.make 15 1.)));
  Alcotest.(check (float 1e-3)) "t for df=9" 2.262 (Batch_means.t_quantile_975 ~df:9);
  Alcotest.(check (float 1e-3)) "t asymptotic" 1.96 (Batch_means.t_quantile_975 ~df:200)

(* ------------------------------------------------------------------ *)
(* P2 online quantile *)

let p2_exact_for_few_samples () =
  let p = P2_quantile.create ~q:0.5 in
  List.iter (P2_quantile.add p) [ 3.; 1.; 2. ];
  check_close 1e-9 "median of 3" 2. (P2_quantile.quantile p)

let p2_matches_exact_median () =
  let rng = Sim_engine.Rng.create ~seed:55L in
  let p = P2_quantile.create ~q:0.5 in
  let xs = Array.init 50_000 (fun _ -> Sim_engine.Rng.gaussian rng ~mean:10. ~std:2.) in
  Array.iter (P2_quantile.add p) xs;
  let exact = Summary.median xs in
  check_close 0.05 "median" exact (P2_quantile.quantile p)

let p2_matches_exact_p99 () =
  let rng = Sim_engine.Rng.create ~seed:56L in
  let p = P2_quantile.create ~q:0.99 in
  let xs = Array.init 100_000 (fun _ -> Sim_engine.Rng.exponential rng ~mean:1.) in
  Array.iter (P2_quantile.add p) xs;
  let exact = Summary.quantile xs 0.99 in
  (* Exponential p99 = 4.6; accept a few percent of estimator error. *)
  Alcotest.(check bool)
    (Printf.sprintf "p99 est %.3f vs exact %.3f" (P2_quantile.quantile p) exact)
    true
    (Float.abs (P2_quantile.quantile p -. exact) /. exact < 0.05)

let p2_rejects_bad_q () =
  Alcotest.check_raises "q" (Invalid_argument "P2_quantile.create: q outside (0,1)")
    (fun () -> ignore (P2_quantile.create ~q:1.))

let binned_total_property =
  QCheck.Test.make ~name:"binned total = sum of all bins" ~count:200
    QCheck.(small_list (float_bound_inclusive 100.))
    (fun times ->
      let b = Binned.create ~origin:0. ~width:3. () in
      List.iter (Binned.record b) times;
      let complete = Binned.counts b ~upto:200. in
      (* upto beyond every event: all bins complete. *)
      int_of_float (Array.fold_left ( +. ) 0. complete) = Binned.total b)

let quantile_order_property =
  QCheck.Test.make ~name:"quantiles are monotone in q" ~count:200
    QCheck.(list_of_size (Gen.int_range 2 40) (float_bound_exclusive 1000.))
    (fun xs ->
      let arr = Array.of_list xs in
      Summary.quantile arr 0.2 <= Summary.quantile arr 0.5
      && Summary.quantile arr 0.5 <= Summary.quantile arr 0.9)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "stats.welford",
      [
        Alcotest.test_case "matches direct computation" `Quick welford_matches_direct;
        Alcotest.test_case "empty and single" `Quick welford_empty_and_single;
        Alcotest.test_case "cov" `Quick welford_cov;
        Alcotest.test_case "population variance" `Quick welford_population_variance;
      ]
      @ qsuite [ welford_merge_property ] );
    ("stats.properties", qsuite [ binned_total_property; quantile_order_property ]);
    ( "stats.summary",
      [
        Alcotest.test_case "basic" `Quick summary_basic;
        Alcotest.test_case "empty rejected" `Quick summary_empty;
        Alcotest.test_case "quantile interpolation" `Quick quantile_interpolation;
        Alcotest.test_case "quantile sorts a copy" `Quick quantile_unsorted_input;
      ] );
    ( "stats.binned",
      [
        Alcotest.test_case "counts with gaps" `Quick binned_counts;
        Alcotest.test_case "partial bin excluded" `Quick binned_partial_bin_excluded;
        Alcotest.test_case "record_many" `Quick binned_record_many;
        Alcotest.test_case "poisson cov law" `Quick binned_poisson_cov_property;
      ] );
    ( "stats.series",
      [
        Alcotest.test_case "basic" `Quick series_basic;
        Alcotest.test_case "monotone time" `Quick series_rejects_backwards;
        Alcotest.test_case "zero-order-hold resample" `Quick series_resample_zoh;
        Alcotest.test_case "between" `Quick series_between;
      ] );
    ( "stats.regression",
      [
        Alcotest.test_case "exact line" `Quick regression_exact_line;
        Alcotest.test_case "errors" `Quick regression_errors;
      ] );
    ( "stats.correlation",
      [
        Alcotest.test_case "perfect correlation" `Quick pearson_perfect;
        Alcotest.test_case "constant series" `Quick pearson_constant_is_zero;
        Alcotest.test_case "independent near zero" `Quick pearson_independent_near_zero;
        Alcotest.test_case "errors" `Quick pearson_errors;
        Alcotest.test_case "mean pairwise" `Quick mean_pairwise_sync;
        Alcotest.test_case "cross-correlation lag" `Quick cross_correlation_lag;
      ] );
    ( "stats.histogram", [ Alcotest.test_case "basic" `Quick histogram_basic ] );
    ( "stats.batch_means",
      [
        Alcotest.test_case "iid coverage" `Quick batch_means_iid_coverage;
        Alcotest.test_case "constant series" `Quick batch_means_constant_series;
        Alcotest.test_case "validation and t-table" `Quick batch_means_validation;
      ] );
    ( "stats.p2",
      [
        Alcotest.test_case "exact for few samples" `Quick p2_exact_for_few_samples;
        Alcotest.test_case "median of gaussian" `Slow p2_matches_exact_median;
        Alcotest.test_case "p99 of exponential" `Slow p2_matches_exact_p99;
        Alcotest.test_case "rejects bad q" `Quick p2_rejects_bad_q;
      ] );
  ]
