(* Closed-form reference values the simulator tests compare against.
   They live here, not in the library, because nothing else calls them. *)

(* Index of dispersion for counts at block size [m]: Var(X^(m)) /
   E(X^(m)), where X^(m) sums [xs] over non-overlapping blocks of [m]
   (a trailing partial block is dropped). Poisson counts give 1 at
   every [m]. Raises [Invalid_argument] on fewer than two blocks or a
   zero blocked mean. *)
let idc xs m =
  if m < 1 then invalid_arg "Oracle.idc: m < 1";
  let blocks =
    Array.init (Array.length xs / m) (fun i ->
        let s = ref 0. in
        for j = 0 to m - 1 do
          s := !s +. xs.((i * m) + j)
        done;
        !s)
  in
  if Array.length blocks < 2 then invalid_arg "Oracle.idc: too few blocks";
  let s = Netstats.Summary.of_array blocks in
  if s.Netstats.Summary.mean = 0. then invalid_arg "Oracle.idc: zero mean";
  s.Netstats.Summary.variance /. s.Netstats.Summary.mean

(* Mean number in an M/D/1 system (Pollaczek-Khinchine with service
   cv^2 = 0): rho + rho^2 / (2 (1 - rho)), for 0 <= rho < 1. *)
let md1_mean_queue ~rho =
  if rho < 0. || rho >= 1. then invalid_arg "Oracle.md1_mean_queue: rho";
  rho +. (rho *. rho /. (2. *. (1. -. rho)))

(* The RFC 6298 retransmission timer in float seconds, as the TCP sender
   runs it: samples quantized to the clock granularity G; SRTT and RTTVAR
   with alpha = 1/8, beta = 1/4, RTTVAR updated from the previous SRTT;
   RTO = SRTT + max (G, 4 RTTVAR), or the initial RTO before the first
   sample; times a backoff multiplier that doubles per expiry up to 64
   and resets on a new sample or ACK; clamped into [min_rto, max_rto]. *)
type rto = { srtt : float option; rttvar : float; backoff : float }

let rto_init = { srtt = None; rttvar = 0.; backoff = 1. }

let rto_sample ~granularity st sample =
  let m = Float.round (sample /. granularity) *. granularity in
  match st.srtt with
  | None -> { srtt = Some m; rttvar = m /. 2.; backoff = 1. }
  | Some s ->
      {
        srtt = Some ((0.875 *. s) +. (0.125 *. m));
        rttvar = (0.75 *. st.rttvar) +. (0.25 *. Float.abs (s -. m));
        backoff = 1.;
      }

let rto_backoff st = { st with backoff = Float.min 64. (2. *. st.backoff) }

let rto_reset st = { st with backoff = 1. }

let rto_seconds ~granularity ~min_rto ~max_rto ~initial_rto st =
  let base =
    match st.srtt with
    | None -> initial_rto
    | Some s -> s +. Float.max granularity (4. *. st.rttvar)
  in
  Float.min max_rto (Float.max min_rto (base *. st.backoff))
