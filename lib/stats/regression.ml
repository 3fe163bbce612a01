type fit = { slope : float; intercept : float; r2 : float }

let ols xs ys =
  let n = Array.length xs in
  if n <> Array.length ys then invalid_arg "Regression.ols: length mismatch";
  if n < 2 then invalid_arg "Regression.ols: need at least 2 points";
  let fn = float_of_int n in
  let sx = Array.fold_left ( +. ) 0. xs and sy = Array.fold_left ( +. ) 0. ys in
  let mx = sx /. fn and my = sy /. fn in
  let sxx = ref 0. and sxy = ref 0. and syy = ref 0. in
  for i = 0 to n - 1 do
    let dx = xs.(i) -. mx and dy = ys.(i) -. my in
    sxx := !sxx +. (dx *. dx);
    sxy := !sxy +. (dx *. dy);
    syy := !syy +. (dy *. dy)
  done;
  if !sxx = 0. then invalid_arg "Regression.ols: all x equal";
  let slope = !sxy /. !sxx in
  let intercept = my -. (slope *. mx) in
  let r2 = if !syy = 0. then 1. else !sxy *. !sxy /. (!sxx *. !syy) in
  { slope; intercept; r2 }
