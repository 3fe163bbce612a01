module L = Flow_layout

type ack_info = {
  mutable ack : int;
  mutable newly_acked : int;
  mutable rtt_ns : int;
  mutable flight_before : int;
}

let make_ack_info () = { ack = 0; newly_acked = 0; rtt_ns = -1; flight_before = 0 }

(* ------------------------------------------------------------------ *)
(* Variants over flow-table rows *)

type variant = Reno | Newreno | Tahoe | Vegas | Sack

type vegas_params = { alpha : float; beta : float; gamma : float }

let default_vegas = { alpha = 1.; beta = 3.; gamma = 1. }

type ctx = { variant : variant; max_window : float; vp : vegas_params }

let make_ctx ?(vegas = default_vegas) ~max_window variant =
  if vegas.alpha <= 0. || vegas.beta < vegas.alpha || vegas.gamma <= 0. then
    invalid_arg "Cc.make_ctx: bad alpha/beta/gamma";
  { variant; max_window; vp = vegas }

let floats_per_flow = function
  | Vegas -> L.vegas_floats
  | Reno | Newreno | Tahoe | Sack -> L.sender_floats

let uses_fast_recovery = function
  | Tahoe -> false
  | Reno | Newreno | Vegas | Sack -> true

let partial_ack_stays = function
  | Newreno | Sack -> true
  | Reno | Tahoe | Vegas -> false

(* All policy below mutates only the float row [fs] at base [fb]; every
   store is an unboxed double into a flat array, so the per-ACK path
   allocates nothing. *)

let init ctx fs fb ~initial_ssthresh =
  (match ctx.variant with
  | Vegas ->
      fs.(fb + L.f_cwnd) <- 2.;
      fs.(fb + L.f_base_rtt) <- infinity;
      fs.(fb + L.f_vss) <- 1.;
      fs.(fb + L.f_vgrow) <- 1.
  | Reno | Newreno | Tahoe | Sack -> fs.(fb + L.f_cwnd) <- 1.);
  fs.(fb + L.f_ssthresh) <- initial_ssthresh

let cwnd (fs : float array) fb = fs.(fb + L.f_cwnd)

let ssthresh (fs : float array) fb = fs.(fb + L.f_ssthresh)

(* Both reads feed straight into the comparison — neither boxes. Vegas's
   published query is the same [cwnd < ssthresh], not its internal
   slow-start flag. *)
let in_slow_start (fs : float array) fb = fs.(fb + L.f_cwnd) < fs.(fb + L.f_ssthresh)

let halve_flight ~flight =
  let half = float_of_int flight /. 2. in
  if half > 2. then half else 2.

(* Standard per-ACK growth: +1 per segment below ssthresh, +1/cwnd per
   segment above, clamped to the advertised window. *)
let grow_aimd ctx (fs : float array) fb newly_acked =
  for _ = 1 to newly_acked do
    if fs.(fb + L.f_cwnd) < fs.(fb + L.f_ssthresh) then
      fs.(fb + L.f_cwnd) <- fs.(fb + L.f_cwnd) +. 1.
    else fs.(fb + L.f_cwnd) <- fs.(fb + L.f_cwnd) +. (1. /. fs.(fb + L.f_cwnd))
  done;
  if fs.(fb + L.f_cwnd) > ctx.max_window then fs.(fb + L.f_cwnd) <- ctx.max_window

(* Vegas clamps into [2, max_window]. *)
let vclamp ctx v =
  let v = if v > ctx.max_window then ctx.max_window else v in
  if v < 2. then 2. else v

let vegas_end_of_epoch ctx (fs : float array) fb (info : ack_info) =
  let rtt =
    if fs.(fb + L.f_epoch_n) > 0. then
      fs.(fb + L.f_epoch_sum) /. fs.(fb + L.f_epoch_n)
    else fs.(fb + L.f_base_rtt)
  in
  if Float.is_finite fs.(fb + L.f_base_rtt) && rtt > 0. then begin
    let diff = fs.(fb + L.f_cwnd) *. (1. -. (fs.(fb + L.f_base_rtt) /. rtt)) in
    if fs.(fb + L.f_vss) <> 0. then begin
      if diff > ctx.vp.gamma then begin
        (* Leave slow start with a 1/8 decrease (Brakmo §4.3). *)
        fs.(fb + L.f_vss) <- 0.;
        fs.(fb + L.f_cwnd) <- vclamp ctx (fs.(fb + L.f_cwnd) *. 0.875)
      end
      else fs.(fb + L.f_vgrow) <- (if fs.(fb + L.f_vgrow) <> 0. then 0. else 1.)
    end
    else if diff < ctx.vp.alpha then
      fs.(fb + L.f_cwnd) <- vclamp ctx (fs.(fb + L.f_cwnd) +. 1.)
    else if diff > ctx.vp.beta then
      fs.(fb + L.f_cwnd) <- vclamp ctx (fs.(fb + L.f_cwnd) -. 1.)
  end;
  fs.(fb + L.f_epoch_sum) <- 0.;
  fs.(fb + L.f_epoch_n) <- 0.;
  (* Next epoch ends when everything now outstanding has been ACKed. *)
  fs.(fb + L.f_epoch_mark) <- float_of_int (info.ack + info.flight_before)

let vegas_on_new_ack ctx (fs : float array) fb (info : ack_info) =
  if info.rtt_ns >= 0 then begin
    let rtt = float_of_int info.rtt_ns *. 1e-9 in
    if rtt < fs.(fb + L.f_base_rtt) then fs.(fb + L.f_base_rtt) <- rtt;
    fs.(fb + L.f_epoch_sum) <- fs.(fb + L.f_epoch_sum) +. rtt;
    fs.(fb + L.f_epoch_n) <- fs.(fb + L.f_epoch_n) +. 1.
  end;
  (* Exponential growth happens per-ACK but only during "grow" epochs. *)
  if fs.(fb + L.f_vss) <> 0. && fs.(fb + L.f_vgrow) <> 0. then begin
    let c = fs.(fb + L.f_cwnd) +. float_of_int info.newly_acked in
    fs.(fb + L.f_cwnd) <- (if c > ctx.max_window then ctx.max_window else c)
  end;
  if float_of_int info.ack > fs.(fb + L.f_epoch_mark) then
    vegas_end_of_epoch ctx fs fb info

let on_new_ack ctx fs fb (info : ack_info) =
  match ctx.variant with
  | Reno | Newreno | Tahoe | Sack -> grow_aimd ctx fs fb info.newly_acked
  | Vegas -> vegas_on_new_ack ctx fs fb info

let enter_recovery ctx (fs : float array) fb ~flight ~now:(_ : float) =
  match ctx.variant with
  | Reno | Newreno ->
      fs.(fb + L.f_ssthresh) <- halve_flight ~flight;
      (* Window inflation: ssthresh + the 3 dup ACKs already seen. *)
      fs.(fb + L.f_cwnd) <- fs.(fb + L.f_ssthresh) +. 3.
  | Tahoe ->
      fs.(fb + L.f_ssthresh) <- halve_flight ~flight;
      fs.(fb + L.f_cwnd) <- 1.
  | Sack ->
      (* No inflation: the engine's pipe accounting admits new segments. *)
      fs.(fb + L.f_ssthresh) <- halve_flight ~flight;
      fs.(fb + L.f_cwnd) <- fs.(fb + L.f_ssthresh)
  | Vegas ->
      fs.(fb + L.f_vss) <- 0.;
      (* Gentler decrease than Reno: 3/4 of the window. *)
      let s = fs.(fb + L.f_cwnd) *. 0.75 in
      fs.(fb + L.f_ssthresh) <- (if s < 2. then 2. else s);
      fs.(fb + L.f_cwnd) <- fs.(fb + L.f_ssthresh) +. 3.

let dup_ack_inflate ctx (fs : float array) fb =
  match ctx.variant with
  | Reno | Newreno | Vegas ->
      let c = fs.(fb + L.f_cwnd) +. 1. in
      fs.(fb + L.f_cwnd) <- (if c > ctx.max_window then ctx.max_window else c)
  | Tahoe | Sack -> ()

let on_partial_ack ctx (fs : float array) fb (info : ack_info) =
  match ctx.variant with
  | Newreno ->
      (* Deflate by the amount acknowledged, then inflate by one for the
         retransmission the engine performs (RFC 2582 §3 step 5). *)
      let c = fs.(fb + L.f_cwnd) -. float_of_int info.newly_acked +. 1. in
      fs.(fb + L.f_cwnd) <- (if c < 1. then 1. else c)
  | Reno | Tahoe | Vegas | Sack -> ()

let on_full_ack ctx (fs : float array) fb (_ : ack_info) =
  match ctx.variant with
  | Reno | Newreno | Vegas -> fs.(fb + L.f_cwnd) <- fs.(fb + L.f_ssthresh)
  | Tahoe | Sack -> ()

let on_timeout ctx (fs : float array) fb ~flight ~now:(_ : float) =
  match ctx.variant with
  | Reno | Newreno | Tahoe | Sack ->
      fs.(fb + L.f_ssthresh) <- halve_flight ~flight;
      fs.(fb + L.f_cwnd) <- 1.
  | Vegas ->
      fs.(fb + L.f_ssthresh) <- halve_flight ~flight;
      fs.(fb + L.f_cwnd) <- 2.;
      fs.(fb + L.f_vss) <- 1.;
      fs.(fb + L.f_vgrow) <- 1.

let on_ecn ctx (fs : float array) fb ~flight ~now:(_ : float) =
  match ctx.variant with
  | Reno | Newreno ->
      (* Halve as for a loss, but no segment is missing (RFC 3168). *)
      fs.(fb + L.f_ssthresh) <- halve_flight ~flight;
      fs.(fb + L.f_cwnd) <- fs.(fb + L.f_ssthresh)
  | Tahoe ->
      fs.(fb + L.f_ssthresh) <- halve_flight ~flight;
      fs.(fb + L.f_cwnd) <- 1.
  | Sack ->
      fs.(fb + L.f_ssthresh) <- halve_flight ~flight;
      fs.(fb + L.f_cwnd) <- fs.(fb + L.f_ssthresh)
  | Vegas ->
      (* Same gentle decrease Vegas uses for a detected loss. *)
      fs.(fb + L.f_vss) <- 0.;
      let c = fs.(fb + L.f_cwnd) *. 0.75 in
      fs.(fb + L.f_cwnd) <- (if c < 2. then 2. else c)
