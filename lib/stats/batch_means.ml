type interval = {
  point : float;
  mean_of_batches : float;
  std_error : float;
  half_width_95 : float;
  batches : int;
}

(* Two-sided 0.975 Student-t quantiles for small degrees of freedom. *)
let t_table =
  [|
    12.706; 4.303; 3.182; 2.776; 2.571; 2.447; 2.365; 2.306; 2.262; 2.228;
    2.201; 2.179; 2.160; 2.145; 2.131; 2.120; 2.110; 2.101; 2.093; 2.086;
    2.080; 2.074; 2.069; 2.064; 2.060; 2.056; 2.052; 2.048; 2.045; 2.042;
  |]

let t_quantile_975 ~df =
  if df < 1 then invalid_arg "Batch_means.t_quantile_975: df < 1";
  if df <= Array.length t_table then t_table.(df - 1) else 1.96

let batches = 10

let analyze ~f xs =
  let n = Array.length xs in
  let per = n / batches in
  if per < 2 then invalid_arg "Batch_means.analyze: fewer than 2 observations per batch";
  let w = Welford.create () in
  for b = 0 to batches - 1 do
    Welford.add w (f (Array.sub xs (b * per) per))
  done;
  let std_error = Welford.std w /. sqrt (float_of_int batches) in
  {
    point = f xs;
    mean_of_batches = Welford.mean w;
    std_error;
    half_width_95 = t_quantile_975 ~df:(batches - 1) *. std_error;
    batches;
  }

let cov_of xs = (Summary.of_array xs).Summary.cov

let cov_interval xs = analyze ~f:cov_of xs
