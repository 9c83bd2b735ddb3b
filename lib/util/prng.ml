(* The splitmix64 state lives unboxed in an 8-byte buffer: a
   [mutable int64] record field would allocate a fresh boxed [Int64] on
   every draw. The [get_int64_ne]/[set_int64_ne] primitives compile to a
   plain load and store, so advancing the state allocates nothing. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let g = Bytes.create 8 in
  Bytes.set_int64_ne g 0 s;
  g

let create seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

(* splitmix64 finalizer: state advances by the golden gamma, output is the
   mixed previous state. Inlined into this module's draws, so the 64-bit
   output stays unboxed; only a call from outside gets a boxed [int64]. *)
let[@inline] bits64 g =
  let z = Int64.add (Bytes.get_int64_ne g 0) golden_gamma in
  Bytes.set_int64_ne g 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split g = of_state (bits64 g)

let[@inline] float g =
  (* Use the top 53 bits for a uniform double in [0,1). *)
  let bits = Int64.shift_right_logical (bits64 g) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let float_range g lo hi =
  assert (lo <= hi);
  lo +. ((hi -. lo) *. float g)

let int g bound =
  assert (bound > 0);
  let mask = Int64.of_int max_int in
  let v = Int64.to_int (Int64.logand (bits64 g) mask) in
  v mod bound

(* Plain loops, summing left to right: the running sums stay unboxed
   float locals, where a [fold_left] closure or a recursive helper would
   box them. *)
let choose_weighted g weights =
  let n = Array.length weights in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    total := !total +. weights.(i)
  done;
  assert (!total > 0.0);
  let x = float g *. !total in
  let pick = ref (n - 1) in
  let acc = ref 0.0 in
  let i = ref 0 in
  while !i < n - 1 do
    acc := !acc +. weights.(!i);
    if x < !acc then begin
      pick := !i;
      i := n
    end
    else incr i
  done;
  !pick
