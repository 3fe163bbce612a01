(* Time is an integer count of nanoseconds. An OCaml [int] is immediate
   (unboxed everywhere: record fields, arrays, closures), so event
   timestamps cost no heap words and comparing two times is one integer
   compare — both on the hottest path in the simulator. Range checks
   happen at construction ([of_sec] and friends); arithmetic afterwards
   is raw [int] arithmetic. *)

type t = int

type span = t

let ns_per_sec = 1_000_000_000.

let zero = 0

let never = max_int

(* Largest representable tick, kept one below [never] so the sentinel
   stays distinguishable. 2^62 - 2 ns is roughly 146 years of simulated
   time — far beyond any run. *)
let max_ticks = max_int - 1

let of_sec s =
  if not (Float.is_finite s) || s < 0. then
    invalid_arg "Time.of_sec: negative or non-finite";
  let ticks = Float.round (s *. ns_per_sec) in
  if ticks > float_of_int max_ticks then
    invalid_arg "Time.of_sec: beyond the 146-year tick horizon";
  int_of_float ticks

let to_sec t = float_of_int t /. ns_per_sec

let of_ns n =
  if n < 0 then invalid_arg "Time.of_ns: negative";
  n

external to_ns : t -> int = "%identity"

let of_ms ms = of_sec (ms /. 1e3)

let of_us us = of_sec (us /. 1e6)

let add t d = t + d

let diff a b =
  if b > a then invalid_arg "Time.diff: negative result";
  a - b

let mul d k =
  if not (Float.is_finite k) || k < 0. then
    invalid_arg "Time.mul: negative or non-finite factor";
  int_of_float (Float.round (float_of_int d *. k))

let compare = Int.compare

let equal = Int.equal

let ( < ) (a : t) b = a < b

let ( <= ) (a : t) b = a <= b

let ( > ) (a : t) b = a > b

let ( >= ) (a : t) b = a >= b

let min (a : t) b = Stdlib.min a b

let max (a : t) b = Stdlib.max a b

let pp ppf t = Format.fprintf ppf "%.6fs" (to_sec t)
