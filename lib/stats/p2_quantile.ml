type t = {
  q : float;
  heights : float array; (* marker heights, 5 *)
  positions : float array; (* actual marker positions, 5 *)
  desired : float array; (* desired marker positions *)
  increments : float array; (* desired position increments per sample *)
  mutable n : int;
}

let create ~q =
  if q <= 0. || q >= 1. then invalid_arg "P2_quantile.create: q outside (0,1)";
  {
    q;
    heights = Array.make 5 0.;
    positions = [| 1.; 2.; 3.; 4.; 5. |];
    desired = [| 1.; 1. +. (2. *. q); 1. +. (4. *. q); 3. +. (2. *. q); 5. |];
    increments = [| 0.; q /. 2.; q; (1. +. q) /. 2.; 1. |];
    n = 0;
  }

let count t = t.n

(* Piecewise-parabolic prediction of marker i moved by d in {-1,+1}.
   Both predictors are inlined into [add], so their float arguments and
   results stay unboxed. *)
let[@inline] parabolic t i d =
  let h = t.heights and p = t.positions in
  h.(i)
  +. d
     /. (p.(i + 1) -. p.(i - 1))
     *. (((p.(i) -. p.(i - 1) +. d) *. (h.(i + 1) -. h.(i)) /. (p.(i + 1) -. p.(i)))
        +. ((p.(i + 1) -. p.(i) -. d) *. (h.(i) -. h.(i - 1)) /. (p.(i) -. p.(i - 1))))

let[@inline] linear t i d =
  let h = t.heights and p = t.positions in
  h.(i) +. (d *. (h.(i + int_of_float d) -. h.(i)) /. (p.(i + int_of_float d) -. p.(i)))

let add t x =
  t.n <- t.n + 1;
  if t.n <= 5 then begin
    t.heights.(t.n - 1) <- x;
    if t.n = 5 then Array.sort Float.compare t.heights
  end
  else begin
    let h = t.heights and p = t.positions in
    (* Find the cell and update extreme markers. *)
    let k =
      if x < h.(0) then begin
        h.(0) <- x;
        0
      end
      else if x >= h.(4) then begin
        h.(4) <- x;
        3
      end
      else begin
        (* The cell [i] with h.(i) <= x < h.(i + 1), found by a loop: a
           local recursive function would allocate its closure per call. *)
        let i = ref 0 in
        while not (x < h.(!i + 1)) do
          incr i
        done;
        !i
      end
    in
    for i = k + 1 to 4 do
      p.(i) <- p.(i) +. 1.
    done;
    for i = 0 to 4 do
      t.desired.(i) <- t.desired.(i) +. t.increments.(i)
    done;
    (* Adjust the three middle markers if they lag their desired spot. *)
    for i = 1 to 3 do
      let d = t.desired.(i) -. p.(i) in
      if
        (d >= 1. && p.(i + 1) -. p.(i) > 1.)
        || (d <= -1. && p.(i - 1) -. p.(i) < -1.)
      then begin
        let d = if d >= 0. then 1. else -1. in
        let candidate = parabolic t i d in
        let h' =
          if t.heights.(i - 1) < candidate && candidate < t.heights.(i + 1) then
            candidate
          else linear t i d
        in
        t.heights.(i) <- h';
        p.(i) <- p.(i) +. d
      end
    done
  end

let quantile t =
  if t.n = 0 then invalid_arg "P2_quantile.quantile: no samples";
  if t.n >= 5 then t.heights.(2)
  else begin
    let sorted = Array.sub t.heights 0 t.n in
    Array.sort Float.compare sorted;
    let pos = t.q *. float_of_int (t.n - 1) in
    sorted.(int_of_float (Float.round pos))
  end
