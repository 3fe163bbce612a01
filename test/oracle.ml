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
