type params = {
  flows : int;
  capacity_pps : float;
  base_rtt_s : float;
  buffer_packets : float;
  red_min_th : float;
  red_max_th : float;
  red_max_p : float;
  avg_gain : float;
}

let of_table1 ~flows ~capacity_pps ~base_rtt_s ~buffer_packets =
  {
    flows;
    capacity_pps;
    base_rtt_s;
    buffer_packets;
    red_min_th = 10.;
    red_max_th = 40.;
    red_max_p = 0.02;
    avg_gain = 10.;
  }

let drop_probability p x =
  if x <= p.red_min_th then 0.
  else if x >= p.red_max_th then 1.
  else p.red_max_p *. (x -. p.red_min_th) /. (p.red_max_th -. p.red_min_th)

let validate p =
  if p.flows < 1 then invalid_arg "Reno_fluid: flows < 1";
  if p.capacity_pps <= 0. || p.base_rtt_s <= 0. || p.buffer_packets <= 0. then
    invalid_arg "Reno_fluid: non-positive parameter";
  if p.red_min_th < 0. || p.red_max_th <= p.red_min_th then
    invalid_arg "Reno_fluid: bad RED thresholds"

(* State layout: [| w; q; x |]. *)
let field p ~t:_ ~y =
  let w = Stdlib.max y.(0) 1e-3 in
  let q = Stdlib.max y.(1) 0. in
  let x = Stdlib.max y.(2) 0. in
  let rtt = p.base_rtt_s +. (q /. p.capacity_pps) in
  let per_flow_rate = w /. rtt in
  let arrival = float_of_int p.flows *. per_flow_rate in
  let dw = (1. /. rtt) -. (w /. 2. *. per_flow_rate *. drop_probability p x) in
  let dq =
    let raw = arrival -. p.capacity_pps in
    (* The queue can neither drain when empty nor grow when full. *)
    if (q <= 0. && raw < 0.) || (q >= p.buffer_packets && raw > 0.) then 0. else raw
  in
  let dx = p.avg_gain *. (q -. x) in
  [| dw; dq; dx |]

let project p y =
  if y.(0) < 1e-3 then y.(0) <- 1e-3;
  if y.(1) < 0. then y.(1) <- 0.;
  if y.(1) > p.buffer_packets then y.(1) <- p.buffer_packets;
  if y.(2) < 0. then y.(2) <- 0.

type equilibrium = {
  eq_window : float;
  eq_queue : float;
  eq_throughput_pps : float;
  eq_loss : float;
  eq_rtt_s : float;
}

let equilibrium p =
  validate p;
  let y =
    Ode.integrate ~project:(project p) (field p) ~y0:[| 1.; 0.; 0. |] ~t0:0.
      ~t1:200. ~dt:0.001
  in
  let w = y.(0) and q = y.(1) and x = y.(2) in
  let rtt = p.base_rtt_s +. (q /. p.capacity_pps) in
  {
    eq_window = w;
    eq_queue = q;
    eq_throughput_pps = float_of_int p.flows *. w /. rtt;
    eq_loss = drop_probability p x;
    eq_rtt_s = rtt;
  }

(* Linearized RED stability (Hollot, Misra, Towsley & Gong, "A Control
   Theoretic Analysis of RED"; Reynier's simple mean-field condition is
   the same bound). Around the window/queue equilibrium the plant gain
   is

     L = (max_p / (max_th - min_th)) * (R C)^3 / (2 N)^2

   with R the round-trip time and C the capacity in packets/s. If
   L <= 1 the loop is stable for every averaging gain. Otherwise the
   averaging pole K = -ln(1 - w_q) C (per-packet EWMA sampled at rate
   C) must stay below

     K* = omega_g / sqrt(L^2 - 1),
     omega_g = 0.1 * min (2 N / (R^2 C), 1 / R)

   which translates back to a critical per-packet gain
   w_q* = 1 - exp (-K* / C): below it the queue settles, above it the
   loop crosses the Hopf boundary and the queue oscillates. *)

type red_stability = {
  loop_gain : float;
  omega_g : float;
  k_critical : float option;
  wq_critical : float option;
}

let red_stability p =
  validate p;
  let c = p.capacity_pps and n = float_of_int p.flows in
  let r = p.base_rtt_s in
  let slope = p.red_max_p /. (p.red_max_th -. p.red_min_th) in
  let l = slope *. ((r *. c) ** 3.) /. ((2. *. n) ** 2.) in
  let omega_g = 0.1 *. Stdlib.min (2. *. n /. (r *. r *. c)) (1. /. r) in
  if l <= 1. then
    { loop_gain = l; omega_g; k_critical = None; wq_critical = None }
  else begin
    let k = omega_g /. sqrt ((l *. l) -. 1.) in
    {
      loop_gain = l;
      omega_g;
      k_critical = Some k;
      wq_critical = Some (1. -. exp (-.k /. c));
    }
  end
