(** Fixed-step Runge–Kutta integration of first-order ODE systems.

    Enough numerical machinery for the TCP fluid models: a classic RK4
    stepper over [float array] state vectors, with an optional
    projection applied after each step (used to clamp queues into
    [\[0, B\]]). *)

type system = t:float -> y:float array -> float array
(** The vector field: returns dy/dt. Must not mutate [y]. *)

val rk4_step : system -> t:float -> dt:float -> float array -> float array
(** One RK4 step from state [y] at time [t]. *)

type system_in_place = t:float -> y:float array -> dy:float array -> unit
(** The vector field, in-place form: writes dy/dt into [dy]. Must not
    mutate [y]. Used by the allocation-free stepper below. *)

type stepper
(** Preallocated scratch (four stage slopes plus a stage state) for
    [step_in_place]. Reusable across steps and systems of dimension up
    to the one it was built with. *)

val stepper : int -> stepper
(** [stepper dim] allocates scratch for systems of dimension [<= dim].
    @raise Invalid_argument if [dim <= 0]. *)

val step_in_place :
  stepper -> system_in_place -> t:float -> dt:float -> float array -> unit
(** One RK4 step advancing [y] in place, allocation-free. Agrees
    bit-for-bit with [rk4_step] on the same system (the stage arithmetic
    is expression-identical).
    @raise Invalid_argument if [y] exceeds the stepper's dimension. *)

val integrate :
  ?project:(float array -> unit) ->
  system ->
  y0:float array ->
  t0:float ->
  t1:float ->
  dt:float ->
  float array
(** Integrate from [t0] to [t1] with step [dt] (the final step is
    shortened to land exactly on [t1]). [project] may mutate the state
    after each step.
    @raise Invalid_argument if [dt <= 0] or [t1 < t0]. *)
