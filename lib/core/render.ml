let fmt_float v =
  if Float.is_integer v && Float.abs v < 1e9 then Printf.sprintf "%.0f" v
  else if Float.abs v >= 1000. then Printf.sprintf "%.4g" v
  else Printf.sprintf "%.4f" v

let table ppf ~header ~rows =
  let all = header :: rows in
  let cols = List.fold_left (fun acc r -> Stdlib.max acc (List.length r)) 0 all in
  let widths = Array.make cols 0 in
  List.iter
    (List.iteri (fun i cell -> widths.(i) <- Stdlib.max widths.(i) (String.length cell)))
    all;
  let print_row row =
    List.iteri
      (fun i cell ->
        let pad = String.make (widths.(i) - String.length cell) ' ' in
        if i = 0 then Format.fprintf ppf "%s%s" cell pad
        else Format.fprintf ppf "  %s%s" pad cell)
      row;
    Format.fprintf ppf "@."
  in
  print_row header;
  let total = Array.fold_left ( + ) 0 widths + (2 * (cols - 1)) in
  Format.fprintf ppf "%s@." (String.make total '-');
  List.iter print_row rows

let resample_to width samples =
  let n = Array.length samples in
  if n = 0 then Array.make width nan
  else
    Array.init width (fun c ->
        let idx = c * (n - 1) / Stdlib.max 1 (width - 1) in
        samples.(Stdlib.min idx (n - 1)))

let width = 72

let plot ppf ?(height = 16) ~x_min ~x_max ~series () =
  let resampled = List.map (fun (g, l, s) -> (g, l, resample_to width s)) series in
  let ymin, ymax =
    List.fold_left
      (fun (mn, mx) (_, _, s) ->
        Array.fold_left
          (fun (mn, mx) v ->
            if Float.is_nan v then (mn, mx) else (Stdlib.min mn v, Stdlib.max mx v))
          (mn, mx) s)
      (infinity, neg_infinity) resampled
  in
  let ymin, ymax =
    if ymin = infinity then (0., 1.) else if ymin = ymax then (ymin -. 1., ymax +. 1.)
    else (ymin, ymax)
  in
  let grid = Array.make_matrix height width ' ' in
  List.iter
    (fun (glyph, _, s) ->
      Array.iteri
        (fun c v ->
          if not (Float.is_nan v) then begin
            let frac = (v -. ymin) /. (ymax -. ymin) in
            let r = int_of_float (frac *. float_of_int (height - 1)) in
            let r = Stdlib.max 0 (Stdlib.min (height - 1) r) in
            grid.(height - 1 - r).(c) <- glyph
          end)
        s)
    resampled;
  for r = 0 to height - 1 do
    let y = ymax -. (float_of_int r /. float_of_int (height - 1) *. (ymax -. ymin)) in
    Format.fprintf ppf "%10s |%s@." (fmt_float y) (String.init width (fun c -> grid.(r).(c)))
  done;
  Format.fprintf ppf "%10s +%s@." "" (String.make width '-');
  Format.fprintf ppf "%10s  %-*s%s@." "" (width - String.length (fmt_float x_max))
    (fmt_float x_min) (fmt_float x_max);
  List.iter (fun (glyph, label, _) -> Format.fprintf ppf "  %c = %s@." glyph label) series
