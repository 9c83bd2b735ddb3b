module Prng = Dpma_util.Prng

type t =
  | Exponential of float
  | Deterministic of float
  | Uniform of float * float
  | Normal of float * float
  | Erlang of int * float
  | Weibull of float * float

(* Lanczos approximation (g = 7, n = 9) — the stdlib has no log-gamma. *)
let log_gamma x =
  let coeffs =
    [| 0.99999999999980993; 676.5203681218851; -1259.1392167224028;
       771.32342877765313; -176.61502916214059; 12.507343278686905;
       -0.13857109526572012; 9.9843695780195716e-6; 1.5056327351493116e-7 |]
  in
  assert (x > 0.0);
  let x = x -. 1.0 in
  let a = ref coeffs.(0) in
  let t = x +. 7.5 in
  for i = 1 to 8 do
    a := !a +. (coeffs.(i) /. (x +. float_of_int i))
  done;
  (0.5 *. log (2.0 *. Float.pi)) +. ((x +. 0.5) *. log t) -. t +. log !a

let mean = function
  | Exponential m -> m
  | Deterministic c -> c
  | Uniform (a, b) -> (a +. b) /. 2.0
  | Normal (m, _) -> m
  | Erlang (_, m) -> m
  | Weibull (k, l) -> l *. exp (log_gamma (1.0 +. (1.0 /. k)))

let variance = function
  | Exponential m -> m *. m
  | Deterministic _ -> 0.0
  | Uniform (a, b) -> (b -. a) ** 2.0 /. 12.0
  | Normal (_, sd) -> sd *. sd
  | Erlang (k, m) -> m *. m /. float_of_int k
  | Weibull (k, l) ->
      let g x = exp (log_gamma x) in
      (l *. l) *. (g (1.0 +. (2.0 /. k)) -. (g (1.0 +. (1.0 /. k)) ** 2.0))

let[@inline] sample_exponential g mean =
  let u = 1.0 -. Prng.float g in
  -.mean *. log u

(* Plain loops and a store into [out]: a float returned from a
   non-inlined or recursive function is boxed, one allocation per draw on
   the simulator's hot path. The normal is Marsaglia's polar method (at
   most a handful of rejections expected), resampled while negative. *)
let sample_into g dist out i =
  match dist with
  | Exponential m -> out.(i) <- sample_exponential g m
  | Deterministic c -> out.(i) <- c
  | Uniform (a, b) -> out.(i) <- Prng.float_range g a b
  | Normal (m, sd) ->
      let x = ref 0.0 in
      let drawing = ref true in
      while !drawing do
        let u = (2.0 *. Prng.float g) -. 1.0 in
        let v = (2.0 *. Prng.float g) -. 1.0 in
        let s = (u *. u) +. (v *. v) in
        if not (s >= 1.0 || s = 0.0) then begin
          x := m +. (sd *. (u *. sqrt (-2.0 *. log s /. s)));
          drawing := !x < 0.0
        end
      done;
      out.(i) <- !x
  | Erlang (k, m) ->
      let stage_mean = m /. float_of_int k in
      let acc = ref 0.0 in
      for _ = 1 to k do
        acc := !acc +. sample_exponential g stage_mean
      done;
      out.(i) <- !acc
  | Weibull (k, l) ->
      let u = 1.0 -. Prng.float g in
      out.(i) <- l *. ((-.log u) ** (1.0 /. k))

let sample g dist =
  let out = Array.make 1 0.0 in
  sample_into g dist out 0;
  out.(0)

let fr = Dpma_util.Floatfmt.repr

let pp ppf = function
  | Exponential m -> Format.fprintf ppf "exp(%s)" (fr m)
  | Deterministic c -> Format.fprintf ppf "det(%s)" (fr c)
  | Uniform (a, b) -> Format.fprintf ppf "unif(%s,%s)" (fr a) (fr b)
  | Normal (m, sd) -> Format.fprintf ppf "norm(%s,%s)" (fr m) (fr sd)
  | Erlang (k, m) -> Format.fprintf ppf "erlang(%d,%s)" k (fr m)
  | Weibull (k, l) -> Format.fprintf ppf "weibull(%s,%s)" (fr k) (fr l)

let to_string t = Format.asprintf "%a" pp t

let of_args name args =
  let literal =
    Printf.sprintf "%s(%s)" name (String.concat "," (List.map fr args))
  in
  let bad form rule =
    Error (Printf.sprintf "%s: %s needs %s" literal form rule)
  in
  match (name, args) with
  | ("exp" | "det" | "unif" | "norm" | "erlang" | "weibull"), _
    when not (List.for_all Float.is_finite args) ->
      Error (Printf.sprintf "%s: arguments must be finite" literal)
  | "exp", [ m ] -> if m > 0.0 then Ok (Exponential m) else bad "exp(m)" "m > 0"
  | "det", [ c ] ->
      if c >= 0.0 then Ok (Deterministic c) else bad "det(c)" "c >= 0"
  | "unif", [ a; b ] ->
      if 0.0 <= a && a <= b then Ok (Uniform (a, b))
      else bad "unif(a,b)" "0 <= a <= b"
  | "norm", [ m; sd ] ->
      if m >= 0.0 && sd >= 0.0 then Ok (Normal (m, sd))
      else bad "norm(m,sd)" "m >= 0 and sd >= 0"
  | "erlang", [ k; m ] ->
      if Float.is_integer k && k >= 1.0 && m > 0.0 then
        Ok (Erlang (int_of_float k, m))
      else bad "erlang(k,m)" "an integer k >= 1 and m > 0"
  | "weibull", [ k; l ] ->
      if k > 0.0 && l > 0.0 then Ok (Weibull (k, l))
      else bad "weibull(k,l)" "k > 0 and l > 0"
  | ("exp" | "det"), _ ->
      Error (Printf.sprintf "%s: %s takes 1 argument" literal name)
  | ("unif" | "norm" | "erlang" | "weibull"), _ ->
      Error (Printf.sprintf "%s: %s takes 2 arguments" literal name)
  | _ -> Error (Printf.sprintf "unknown distribution %S" name)

let of_string s =
  let s = String.trim s in
  let parse_args name body =
    body |> String.split_on_char ',' |> List.map String.trim
    |> List.map (fun x ->
           match float_of_string_opt x with
           | Some f -> Ok f
           | None -> Error (Printf.sprintf "%s: bad number %S" name x))
    |> List.fold_left
         (fun acc r ->
           match (acc, r) with
           | Ok xs, Ok x -> Ok (xs @ [ x ])
           | (Error _ as e), _ -> e
           | _, Error e -> Error e)
         (Ok [])
  in
  match String.index_opt s '(' with
  | None -> Error (Printf.sprintf "distribution: missing '(' in %S" s)
  | Some i ->
      if String.length s = 0 || s.[String.length s - 1] <> ')' then
        Error (Printf.sprintf "distribution: missing ')' in %S" s)
      else
        let name = String.sub s 0 i in
        let body = String.sub s (i + 1) (String.length s - i - 2) in
        Result.bind (parse_args name body) (of_args name)

let equal a b =
  match (a, b) with
  | Exponential x, Exponential y | Deterministic x, Deterministic y -> x = y
  | Uniform (a1, b1), Uniform (a2, b2) -> a1 = a2 && b1 = b2
  | Normal (m1, s1), Normal (m2, s2) -> m1 = m2 && s1 = s2
  | Erlang (k1, m1), Erlang (k2, m2) -> k1 = k2 && m1 = m2
  | Weibull (k1, l1), Weibull (k2, l2) -> k1 = k2 && l1 = l2
  | ( ( Exponential _ | Deterministic _ | Uniform _ | Normal _ | Erlang _
      | Weibull _ ),
      _ ) ->
      false
