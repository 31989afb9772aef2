let log2 x = log x /. log 2.0

(* Top level rather than a local closure over [n], so the phase-length
   computation in every Decay round allocates nothing. *)
let rec log2i_floor_from n k acc =
  if acc * 2 > n || acc > max_int / 2 then k else log2i_floor_from n (k + 1) (acc * 2)

let log2i_floor n =
  if n < 1 then invalid_arg "Floatx.log2i_floor";
  log2i_floor_from n 0 1

let log2i_ceil n =
  if n < 1 then invalid_arg "Floatx.log2i_ceil";
  let f = log2i_floor n in
  if 1 lsl f = n then f else f + 1

let is_pow2 n = n > 0 && n land (n - 1) = 0

let safe_div a b = if b = 0.0 then nan else a /. b

let approx_equal ?(eps = 1e-9) a b =
  let d = Float.abs (a -. b) in
  d <= eps || d <= eps *. Float.max (Float.abs a) (Float.abs b)

let clamp ~lo ~hi x = Float.max lo (Float.min hi x)
