type params = {
  granularity : float;
  min_rto : float;
  max_rto : float;
  initial_rto : float;
}

let default_params =
  { granularity = 0.1; min_rto = 1.0; max_rto = 64.0; initial_rto = 3.0 }

(* [rto_ns_at] turns each value into integer nanoseconds, so all must be
   finite and below the clock's tick horizon; a zero granularity would
   make every sample NaN and every timer fire at once. *)
let bad_field p =
  let horizon = Sim_engine.Time.(to_sec never) in
  let positive v = v > 0. && v < horizon in
  if not (positive p.granularity) then Some "granularity"
  else if not (positive p.min_rto) then Some "min_rto"
  else if not (positive p.initial_rto) then Some "initial_rto"
  else if not (p.max_rto >= p.min_rto && p.max_rto < horizon) then
    Some "max_rto"
  else None

(* The estimator runs over a row of the sender table's float region
   ([Flow_layout.f_srtt]/[f_rttvar]/[f_backoff] at base [fb]): stores
   into a flat float array stay unboxed, where mutable float record
   fields would box on every ACK. The caller owns the have-sample bit (a
   flag in its int row) and passes it in. *)

module L = Flow_layout

let observe_ns_at p (fs : float array) fb ~first ns =
  if ns < 0 then invalid_arg "Rto.observe_ns_at: negative sample";
  let sample = float_of_int ns *. 1e-9 in
  let m = Float.round (sample /. p.granularity) *. p.granularity in
  if first then begin
    (* RFC 6298 initialization. *)
    fs.(fb + L.f_srtt) <- m;
    fs.(fb + L.f_rttvar) <- m /. 2.
  end
  else begin
    (* alpha = 1/8, beta = 1/4 *)
    fs.(fb + L.f_rttvar) <-
      (0.75 *. fs.(fb + L.f_rttvar))
      +. (0.25 *. Float.abs (fs.(fb + L.f_srtt) -. m));
    fs.(fb + L.f_srtt) <- (0.875 *. fs.(fb + L.f_srtt)) +. (0.125 *. m)
  end;
  fs.(fb + L.f_backoff) <- 1.

(* Explicit comparisons instead of the polymorphic [Stdlib.min]/[max]:
   no value here is ever NaN, and the polymorphic versions box both
   operands on every call. The tick count matches
   [Time.of_sec seconds] bit for bit without the float crossing a
   call. *)
let rto_ns_at p (fs : float array) fb ~have_sample =
  let base =
    if not have_sample then p.initial_rto
    else begin
      let spread = 4. *. fs.(fb + L.f_rttvar) in
      let spread = if spread < p.granularity then p.granularity else spread in
      fs.(fb + L.f_srtt) +. spread
    end
  in
  let v = base *. fs.(fb + L.f_backoff) in
  let v = if v < p.min_rto then p.min_rto else v in
  let v = if v > p.max_rto then p.max_rto else v in
  int_of_float (Float.round (v *. 1e9))

let backoff_at (fs : float array) fb =
  let b = fs.(fb + L.f_backoff) *. 2. in
  fs.(fb + L.f_backoff) <- (if b > 64. then 64. else b)

let reset_backoff_at (fs : float array) fb = fs.(fb + L.f_backoff) <- 1.

let init_at (fs : float array) fb = fs.(fb + L.f_backoff) <- 1.
