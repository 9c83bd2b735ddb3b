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
