(* Tests for the fluid-model library: the RK4 integrator against known
   solutions, the Reno/Vegas equilibria against their fixed-point
   equations, and the fluid-vs-packet comparison. *)

open Fluidmodel

let check_close tol = Alcotest.(check (float tol))

(* ------------------------------------------------------------------ *)
(* Ode *)

let ode_exponential_decay () =
  (* dy/dt = -y, y(0) = 1 -> y(t) = e^-t. *)
  let f ~t:_ ~y = [| -.y.(0) |] in
  let y = Ode.integrate f ~y0:[| 1. |] ~t0:0. ~t1:2. ~dt:0.01 in
  check_close 1e-6 "e^-2" (exp (-2.)) y.(0)

let ode_harmonic_oscillator () =
  (* y'' = -y as a system: energy and phase are preserved to RK4 accuracy. *)
  let f ~t:_ ~y = [| y.(1); -.y.(0) |] in
  let y = Ode.integrate f ~y0:[| 1.; 0. |] ~t0:0. ~t1:(2. *. Float.pi) ~dt:0.001 in
  check_close 1e-6 "position after one period" 1. y.(0);
  check_close 1e-6 "velocity after one period" 0. y.(1)

let ode_fourth_order_convergence () =
  (* Halving dt should shrink the error by about 2^4. *)
  let f ~t ~y:_ = [| cos t |] in
  let exact = sin 1.5 in
  let err dt =
    let y = Ode.integrate f ~y0:[| 0. |] ~t0:0. ~t1:1.5 ~dt in
    Float.abs (y.(0) -. exact)
  in
  let e1 = err 0.1 and e2 = err 0.05 in
  Alcotest.(check bool)
    (Printf.sprintf "error ratio %.1f ~ 16" (e1 /. e2))
    true
    (e1 /. e2 > 8. && e1 /. e2 < 32.)

let ode_project_clamps_each_step () =
  let projected = ref 0 in
  let f ~t:_ ~y:_ = [| 1. |] in
  let y =
    Ode.integrate
      ~project:(fun y ->
        incr projected;
        if y.(0) > 0.5 then y.(0) <- 0.5)
      f ~y0:[| 0. |] ~t0:0. ~t1:1. ~dt:0.1
  in
  check_close 1e-9 "clamped" 0.5 y.(0);
  Alcotest.(check int) "projected after every step" 10 !projected

let ode_rejects_bad_args () =
  let f ~t:_ ~y:_ = [| 0. |] in
  Alcotest.check_raises "dt" (Invalid_argument "Ode.integrate: dt <= 0") (fun () ->
      ignore (Ode.integrate f ~y0:[| 0. |] ~t0:0. ~t1:1. ~dt:0.));
  Alcotest.check_raises "t1" (Invalid_argument "Ode.integrate: t1 < t0") (fun () ->
      ignore (Ode.integrate f ~y0:[| 0. |] ~t0:1. ~t1:0. ~dt:0.1))

(* --- in-place RK4 stepper ----------------------------------------- *)

(* A stiff-ish nonlinear 2-d system exercising both components and the
   time argument. Allocating and in-place forms of the same field. *)
let vdp_alloc ~t ~y = [| y.(1); ((1. -. (y.(0) *. y.(0))) *. y.(1)) -. y.(0) +. sin t |]

let vdp_in_place ~t ~y ~dy =
  dy.(0) <- y.(1);
  dy.(1) <- ((1. -. (y.(0) *. y.(0))) *. y.(1)) -. y.(0) +. sin t

let ode_step_in_place_bit_identical () =
  (* The in-place stepper's stage arithmetic is expression-identical to
     [rk4_step], so the results must agree bit for bit — not just to
     tolerance — over many steps. *)
  let y_ref = ref [| 2.; 0. |] in
  let y = [| 2.; 0. |] in
  let s = Ode.stepper 2 in
  for i = 0 to 199 do
    let t = 0.05 *. float_of_int i in
    y_ref := Ode.rk4_step vdp_alloc ~t ~dt:0.05 !y_ref;
    Ode.step_in_place s vdp_in_place ~t ~dt:0.05 y;
    Array.iteri
      (fun j v ->
        Alcotest.(check bool)
          (Printf.sprintf "step %d component %d bit-identical" i j)
          true
          (Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float !y_ref.(j))))
      y
  done

let ode_step_in_place_golden () =
  (* Golden vectors pinned from the expression-identical [rk4_step]:
     exponential decay (one step, exact RK4 polynomial) and 10 steps of
     the forced Van der Pol system above. *)
  let s = Ode.stepper 2 in
  let y = [| 1. |] in
  Ode.step_in_place s (fun ~t:_ ~y ~dy -> dy.(0) <- -.y.(0)) ~t:0. ~dt:0.5 y;
  (* 1 - 1/2 + 1/8 - 1/48 + 1/384 = RK4's quartic truncation of e^-0.5. *)
  check_close 1e-15 "decay one step" 0.6067708333333333 y.(0);
  let y = [| 2.; 0. |] in
  for i = 0 to 9 do
    Ode.step_in_place s vdp_in_place ~t:(0.1 *. float_of_int i) ~dt:0.1 y
  done;
  check_close 1e-12 "vdp position" 1.6106899418778762 y.(0);
  check_close 1e-12 "vdp velocity" (-0.49467209532545381) y.(1)

let ode_stepper_validates () =
  Alcotest.check_raises "dim" (Invalid_argument "Ode.stepper: dim <= 0")
    (fun () -> ignore (Ode.stepper 0));
  let s = Ode.stepper 1 in
  Alcotest.check_raises "dimension exceeded"
    (Invalid_argument "Ode.step_in_place: state exceeds stepper dimension")
    (fun () -> Ode.step_in_place s vdp_in_place ~t:0. ~dt:0.1 [| 1.; 2. |])

(* ------------------------------------------------------------------ *)
(* Reno fluid *)

let table1_reno flows =
  Reno_fluid.of_table1 ~flows ~capacity_pps:416.67 ~base_rtt_s:1.
    ~buffer_packets:50.

let reno_equilibrium_golden () =
  (* Golden equilibrium for the Table 1 Reno/RED shape at 8 flows,
     pinned to 1e-9 so any change to the integrator (including the
     in-place stepper refactor) that perturbs the fluid fixed point is
     caught immediately. *)
  let eq = Reno_fluid.equilibrium (table1_reno 8) in
  check_close 1e-9 "window" 53.464937705775021 eq.Reno_fluid.eq_window;
  check_close 1e-9 "queue" 11.049501646795884 eq.Reno_fluid.eq_queue;
  check_close 1e-9 "throughput" 416.66999999941964 eq.Reno_fluid.eq_throughput_pps

let reno_fluid_fixed_point () =
  (* At equilibrium dw/dt = 0 gives w = sqrt(2/p). *)
  let eq = Reno_fluid.equilibrium (table1_reno 8) in
  Alcotest.(check bool) "loss positive" true (eq.Reno_fluid.eq_loss > 0.);
  let w_expected = sqrt (2. /. eq.Reno_fluid.eq_loss) in
  check_close (0.05 *. w_expected) "w = sqrt(2/p)" w_expected eq.Reno_fluid.eq_window

let reno_fluid_fills_the_pipe () =
  let eq = Reno_fluid.equilibrium (table1_reno 8) in
  Alcotest.(check bool) "throughput near capacity" true
    (eq.Reno_fluid.eq_throughput_pps > 0.95 *. 416.67
    && eq.Reno_fluid.eq_throughput_pps < 1.05 *. 416.67);
  Alcotest.(check bool) "queue inside RED band" true
    (eq.Reno_fluid.eq_queue > 0. && eq.Reno_fluid.eq_queue < 40.)

let reno_fluid_window_scales_inversely () =
  let w n = (Reno_fluid.equilibrium (table1_reno n)).Reno_fluid.eq_window in
  Alcotest.(check bool) "w(4) ~ 2 w(8)" true
    (w 4 /. w 8 > 1.6 && w 4 /. w 8 < 2.4)

let reno_fluid_validates () =
  Alcotest.check_raises "flows" (Invalid_argument "Reno_fluid: flows < 1") (fun () ->
      ignore (Reno_fluid.equilibrium (table1_reno 0)))

(* ------------------------------------------------------------------ *)
(* Vegas fluid *)

let table1_vegas flows buffer =
  {
    Vegas_fluid.flows;
    capacity_pps = 416.67;
    base_rtt_s = 1.;
    buffer_packets = buffer;
    alpha = 1.;
    beta = 3.;
  }

let vegas_fluid_equilibrium () =
  let eq = Vegas_fluid.equilibrium (table1_vegas 8 50.) in
  check_close 1e-9 "queue = n (a+b)/2" 16. eq.Vegas_fluid.eq_queue;
  Alcotest.(check bool) "not overloaded" false eq.Vegas_fluid.overloaded;
  check_close 1e-6 "full capacity" 416.67 eq.Vegas_fluid.eq_throughput_pps;
  (* w = c r0 / n + d = 52.08 + 2 *)
  check_close 0.01 "window" ((416.67 /. 8.) +. 2.) eq.Vegas_fluid.eq_window

let vegas_fluid_overload_flag () =
  (* 60 flows want >= 60 queued packets; a 50-packet buffer cannot. *)
  let eq = Vegas_fluid.equilibrium (table1_vegas 60 50.) in
  Alcotest.(check bool) "overloaded" true eq.Vegas_fluid.overloaded;
  check_close 1e-9 "queue pinned at buffer" 50. eq.Vegas_fluid.eq_queue;
  check_close 1e-9 "min buffer" 60. (Vegas_fluid.min_buffer (table1_vegas 60 50.))

let vegas_fluid_validates () =
  Alcotest.check_raises "alpha/beta" (Invalid_argument "Vegas_fluid: bad alpha/beta")
    (fun () ->
      ignore (Vegas_fluid.equilibrium { (table1_vegas 8 50.) with Vegas_fluid.beta = 0.5 }))

(* ------------------------------------------------------------------ *)
(* Fluid vs packet simulation *)

let fluid_matches_packet_vegas () =
  let cfg = { Burstcore.Config.default with duration_s = 120. } in
  let c = Burstcore.Fluid_compare.compare_vegas cfg ~flows:8 in
  let ratio = c.Burstcore.Fluid_compare.measured_window /. c.Burstcore.Fluid_compare.fluid_window in
  Alcotest.(check bool)
    (Printf.sprintf "window ratio %.3f within 10%%" ratio)
    true
    (ratio > 0.9 && ratio < 1.1);
  let qratio = c.Burstcore.Fluid_compare.measured_queue /. c.Burstcore.Fluid_compare.fluid_queue in
  Alcotest.(check bool)
    (Printf.sprintf "queue ratio %.3f within 30%%" qratio)
    true
    (qratio > 0.7 && qratio < 1.3)

let fluid_matches_packet_reno_window () =
  let cfg = { Burstcore.Config.default with duration_s = 120. } in
  let c = Burstcore.Fluid_compare.compare_reno cfg ~flows:8 in
  let ratio = c.Burstcore.Fluid_compare.measured_window /. c.Burstcore.Fluid_compare.fluid_window in
  Alcotest.(check bool)
    (Printf.sprintf "window ratio %.3f within 25%%" ratio)
    true
    (ratio > 0.75 && ratio < 1.25)

let suite =
  [
    ( "fluid.ode",
      [
        Alcotest.test_case "exponential decay" `Quick ode_exponential_decay;
        Alcotest.test_case "harmonic oscillator" `Quick ode_harmonic_oscillator;
        Alcotest.test_case "fourth-order convergence" `Quick ode_fourth_order_convergence;
        Alcotest.test_case "project clamps each step" `Quick
          ode_project_clamps_each_step;
        Alcotest.test_case "argument validation" `Quick ode_rejects_bad_args;
        Alcotest.test_case "in-place stepper bit-identical" `Quick
          ode_step_in_place_bit_identical;
        Alcotest.test_case "in-place stepper golden vectors" `Quick
          ode_step_in_place_golden;
        Alcotest.test_case "stepper validation" `Quick ode_stepper_validates;
      ] );
    ( "fluid.reno",
      [
        Alcotest.test_case "fixed point w = sqrt(2/p)" `Quick reno_fluid_fixed_point;
        Alcotest.test_case "fills the pipe" `Quick reno_fluid_fills_the_pipe;
        Alcotest.test_case "window scales with 1/n" `Quick reno_fluid_window_scales_inversely;
        Alcotest.test_case "validation" `Quick reno_fluid_validates;
        Alcotest.test_case "equilibrium golden" `Quick reno_equilibrium_golden;
      ] );
    ( "fluid.vegas",
      [
        Alcotest.test_case "equilibrium" `Quick vegas_fluid_equilibrium;
        Alcotest.test_case "overload flag" `Quick vegas_fluid_overload_flag;
        Alcotest.test_case "validation" `Quick vegas_fluid_validates;
      ] );
    ( "fluid.vs_packet",
      [
        Alcotest.test_case "vegas agreement" `Slow fluid_matches_packet_vegas;
        Alcotest.test_case "reno window agreement" `Slow fluid_matches_packet_reno_window;
      ] );
  ]
