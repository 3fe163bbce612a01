type system = t:float -> y:float array -> float array

let axpy a x y = Array.mapi (fun i yi -> yi +. (a *. x.(i))) y

let rk4_step f ~t ~dt y =
  let k1 = f ~t ~y in
  let k2 = f ~t:(t +. (dt /. 2.)) ~y:(axpy (dt /. 2.) k1 y) in
  let k3 = f ~t:(t +. (dt /. 2.)) ~y:(axpy (dt /. 2.) k2 y) in
  let k4 = f ~t:(t +. dt) ~y:(axpy dt k3 y) in
  Array.mapi
    (fun i yi ->
      yi +. (dt /. 6. *. (k1.(i) +. (2. *. k2.(i)) +. (2. *. k3.(i)) +. k4.(i))))
    y

(* In-place variant for hot paths: the vector field writes dy/dt into a
   caller-provided buffer and the four stage slopes live in preallocated
   scratch, so a step allocates nothing. The arithmetic mirrors
   [rk4_step] expression by expression, so both steppers agree
   bit-for-bit (pinned in the test suite). *)

type system_in_place = t:float -> y:float array -> dy:float array -> unit

type stepper = {
  k1 : float array;
  k2 : float array;
  k3 : float array;
  k4 : float array;
  ytmp : float array;
}

let stepper dim =
  if dim <= 0 then invalid_arg "Ode.stepper: dim <= 0";
  {
    k1 = Array.make dim 0.;
    k2 = Array.make dim 0.;
    k3 = Array.make dim 0.;
    k4 = Array.make dim 0.;
    ytmp = Array.make dim 0.;
  }

let step_in_place s f ~t ~dt y =
  let n = Array.length y in
  if n > Array.length s.k1 then
    invalid_arg "Ode.step_in_place: state exceeds stepper dimension";
  f ~t ~y ~dy:s.k1;
  for i = 0 to n - 1 do
    s.ytmp.(i) <- y.(i) +. (dt /. 2. *. s.k1.(i))
  done;
  f ~t:(t +. (dt /. 2.)) ~y:s.ytmp ~dy:s.k2;
  for i = 0 to n - 1 do
    s.ytmp.(i) <- y.(i) +. (dt /. 2. *. s.k2.(i))
  done;
  f ~t:(t +. (dt /. 2.)) ~y:s.ytmp ~dy:s.k3;
  for i = 0 to n - 1 do
    s.ytmp.(i) <- y.(i) +. (dt *. s.k3.(i))
  done;
  f ~t:(t +. dt) ~y:s.ytmp ~dy:s.k4;
  for i = 0 to n - 1 do
    y.(i) <-
      y.(i)
      +. (dt /. 6.
          *. (s.k1.(i) +. (2. *. s.k2.(i)) +. (2. *. s.k3.(i)) +. s.k4.(i)))
  done

let integrate ?(project = fun _ -> ()) f ~y0 ~t0 ~t1 ~dt =
  if dt <= 0. then invalid_arg "Ode.integrate: dt <= 0";
  if t1 < t0 then invalid_arg "Ode.integrate: t1 < t0";
  let y = ref (Array.copy y0) in
  let t = ref t0 in
  while !t < t1 -. 1e-12 do
    let step = Stdlib.min dt (t1 -. !t) in
    let next = rk4_step f ~t:!t ~dt:step !y in
    project next;
    y := next;
    t := !t +. step
  done;
  !y
