(* LTS helpers shared by the test executables. *)

module Lts = Dpma_lts.Lts

(* Digest of every CSR array of an LTS (labels by name, rate values by
   bits): two LTSs with equal digests agree on state numbering, edge
   order within each state, labels, targets and rates. *)
let csr_digest (l : Lts.t) =
  let b = Buffer.create 65536 in
  let ints a =
    Array.iter (fun x -> Buffer.add_string b (string_of_int x); Buffer.add_char b ',') a;
    Buffer.add_char b '|'
  in
  ints l.Lts.row;
  Array.iter
    (fun x -> Buffer.add_string b (Lts.label_name x); Buffer.add_char b ',')
    l.Lts.lab;
  Buffer.add_char b '|';
  ints l.Lts.tgt;
  ints l.Lts.rate_kind;
  Array.iter
    (fun x ->
      Buffer.add_string b (Int64.to_string (Int64.bits_of_float x));
      Buffer.add_char b ',')
    l.Lts.rate_val;
  Buffer.add_char b '|';
  ints l.Lts.rate_prio;
  Digest.to_hex (Digest.string (Buffer.contents b))


(* Hand-built LTSs: one record per edge, one list per state. *)
type transition = {
  label : Lts.label;
  rate : Dpma_pa.Rate.t option;
  target : int;
}

let rate_code = function
  | None -> (0, 0.0, 0)
  | Some (Dpma_pa.Rate.Exp lambda) -> (1, lambda, 0)
  | Some (Dpma_pa.Rate.Imm { prio; weight }) -> (2, weight, prio)
  | Some (Dpma_pa.Rate.Passive { weight }) -> (3, weight, 0)

(* Pack per-state transition lists (index = state) into an LTS, each
   state's edges in list order. *)
let make ~init ~state_name (trans : transition list array) =
  let row = Array.make (Array.length trans + 1) 0 in
  Array.iteri (fun s l -> row.(s + 1) <- row.(s) + List.length l) trans;
  let edges = Array.of_list (List.concat (Array.to_list trans)) in
  let field f = Array.map f edges in
  Lts.of_csr ~init ~state_name ~row
    ~lab:(field (fun tr -> tr.label))
    ~tgt:(field (fun tr -> tr.target))
    ~rate_kind:(field (fun tr -> let k, _, _ = rate_code tr.rate in k))
    ~rate_val:(field (fun tr -> let _, v, _ = rate_code tr.rate in v))
    ~rate_prio:(field (fun tr -> let _, _, p = rate_code tr.rate in p))

(* The outgoing edges of a state, in CSR order. *)
let transitions_of (lts : Lts.t) s =
  List.init (lts.Lts.row.(s + 1) - lts.Lts.row.(s)) (fun k ->
      let i = lts.row.(s) + k in
      { label = lts.lab.(i); rate = Lts.rate_of lts i; target = lts.tgt.(i) })
