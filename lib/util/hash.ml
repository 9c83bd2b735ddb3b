let int x =
  let x = (x lxor (x lsr 32)) * 0x2545_F491_4F6C_DD1D in
  (x lxor (x lsr 29)) land max_int

let fold h x = (h lxor x) * 0x100_0000_01b3

let fold_ints h a =
  let h = ref h in
  for i = 0 to Array.length a - 1 do
    h := fold !h a.(i)
  done;
  !h

let ints a = int (fold_ints (Array.length a) a)

module Int = struct
  type t = int

  let equal : int -> int -> bool = Int.equal

  let hash = int
end

module Ints = struct
  type t = int array

  let equal (a : int array) b =
    a == b
    || Array.length a = Array.length b
       &&
       let rec eq i = i < 0 || (a.(i) = b.(i) && eq (i - 1)) in
       eq (Array.length a - 1)

  let hash = ints
end
