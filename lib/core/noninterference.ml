module Lts = Dpma_lts.Lts
module Bisim = Dpma_lts.Bisim
module Diagnose = Dpma_lts.Diagnose
module Hml = Dpma_lts.Hml
module String_set = Set.Make (String)

type verdict = Secure | Insecure of Hml.t

let observed_pair lts ~high ~low =
  let with_dpm_hidden = Lts.hide_all_but lts ~keep:low in
  let without_dpm =
    Lts.hide_all_but (Lts.restrict lts ~remove:high) ~keep:low
  in
  (with_dpm_hidden, without_dpm)

let check_lts ?jobs lts ~high ~low =
  let hidden, removed = observed_pair lts ~high ~low in
  (* Single pass: the product refiner decides the verdict (lazy weak
     signatures, one watched refinement), and an INSECURE split hands
     its trail straight to the diagnostics — the union is never
     analyzed twice. *)
  match Bisim.weak_product_check ?jobs hidden removed with
  | Bisim.Product_secure _ -> Secure
  | Bisim.Product_insecure trail -> Insecure (Diagnose.of_product_trail trail)

(* The hide/restrict traversals query the classifier once per transition;
   a membership list scanned per query is quadratic in practice. Build
   the set once per check. *)
let mem_of actions =
  let set = String_set.of_list actions in
  fun a -> String_set.mem a set

let check_spec ?max_states ?jobs spec ~high ~low =
  let lts = Lts.of_spec ?max_states ?jobs spec in
  check_lts ?jobs lts ~high:(mem_of high) ~low:(mem_of low)

let pp_verdict ppf = function
  | Secure ->
      Format.pp_print_string ppf
        "SECURE: the DPM does not interfere with the low behavior"
  | Insecure formula ->
      Format.fprintf ppf
        "@[<v>INSECURE: the DPM is observable by the client; distinguishing \
         formula:@,%a@]"
        (Hml.pp ~weak:true) formula

let branching_secure ?jobs lts ~high ~low =
  let hidden, removed = observed_pair lts ~high ~low in
  Bisim.branching_product_secure ?jobs hidden removed

let trace_secure ?jobs lts ~high ~low =
  let hidden, removed = observed_pair lts ~high ~low in
  Bisim.trace_product_secure ?jobs hidden removed
