type accumulator = {
  mutable n : int;
  mutable mu : float;
  mutable m2 : float;
}

let accumulator () = { n = 0; mu = 0.0; m2 = 0.0 }

let add acc x =
  acc.n <- acc.n + 1;
  let delta = x -. acc.mu in
  acc.mu <- acc.mu +. (delta /. float_of_int acc.n);
  acc.m2 <- acc.m2 +. (delta *. (x -. acc.mu))

let count acc = acc.n

let mean acc = if acc.n = 0 then nan else acc.mu

let variance acc = if acc.n < 2 then 0.0 else acc.m2 /. float_of_int (acc.n - 1)

let stddev acc = sqrt (variance acc)

type summary = {
  n : int;
  mean : float;
  stddev : float;
  half_width : float;
  confidence : float;
}

(* Acklam's rational approximation to the inverse standard normal CDF. *)
let normal_quantile p =
  assert (p > 0.0 && p < 1.0);
  let a =
    [| -3.969683028665376e+01; 2.209460984245205e+02; -2.759285104469687e+02;
       1.383577518672690e+02; -3.066479806614716e+01; 2.506628277459239e+00 |]
  and b =
    [| -5.447609879822406e+01; 1.615858368580409e+02; -1.556989798598866e+02;
       6.680131188771972e+01; -1.328068155288572e+01 |]
  and c =
    [| -7.784894002430293e-03; -3.223964580411365e-01; -2.400758277161838e+00;
       -2.549732539343734e+00; 4.374664141464968e+00; 2.938163982698783e+00 |]
  and d =
    [| 7.784695709041462e-03; 3.224671290700398e-01; 2.445134137142996e+00;
       3.754408661907416e+00 |]
  in
  let p_low = 0.02425 in
  let p_high = 1.0 -. p_low in
  if p < p_low then
    let q = sqrt (-2.0 *. log p) in
    (((((c.(0) *. q +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4)) *. q +. c.(5))
    /. ((((d.(0) *. q +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.0)
  else if p <= p_high then
    let q = p -. 0.5 in
    let r = q *. q in
    (((((a.(0) *. r +. a.(1)) *. r +. a.(2)) *. r +. a.(3)) *. r +. a.(4)) *. r +. a.(5))
    *. q
    /. (((((b.(0) *. r +. b.(1)) *. r +. b.(2)) *. r +. b.(3)) *. r +. b.(4)) *. r +. 1.0)
  else
    let q = sqrt (-2.0 *. log (1.0 -. p)) in
    -.((((((c.(0) *. q +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4)) *. q +. c.(5))
       /. ((((d.(0) *. q +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.0))

(* Cornish–Fisher style expansion of the t quantile in terms of the normal
   quantile (Abramowitz & Stegun 26.7.5); accurate to ~1e-3 for df >= 3. *)
let student_t_quantile ~df p =
  assert (df >= 1);
  if df = 1 then tan (Float.pi *. (p -. 0.5))
  else if df = 2 then
    let x = 2.0 *. p -. 1.0 in
    x *. sqrt (2.0 /. (1.0 -. (x *. x)))
  else
    let z = normal_quantile p in
    let v = float_of_int df in
    let z3 = z ** 3.0 and z5 = z ** 5.0 and z7 = z ** 7.0 in
    z
    +. ((z3 +. z) /. (4.0 *. v))
    +. (((5.0 *. z5) +. (16.0 *. z3) +. (3.0 *. z)) /. (96.0 *. v *. v))
    +. (((3.0 *. z7) +. (19.0 *. z5) +. (17.0 *. z3) -. (15.0 *. z))
        /. (384.0 *. (v ** 3.0)))

let summarize ?(confidence = 0.90) (acc : accumulator) =
  let n = acc.n in
  let mu = mean acc in
  let sd = stddev acc in
  let half_width =
    if n < 2 then infinity
    else
      let p = 1.0 -. ((1.0 -. confidence) /. 2.0) in
      let t = student_t_quantile ~df:(n - 1) p in
      t *. sd /. sqrt (float_of_int n)
  in
  { n; mean = mu; stddev = sd; half_width; confidence }

let relative_error ~reference x =
  abs_float (x -. reference) /. Float.max (abs_float reference) 1e-12
