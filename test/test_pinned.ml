(* Pinned outputs of the LTS producers: quotients, saturation,
   determinization and reachability pruning, on both paper studies and
   on seeded random LTSs. The digests were captured from the producers
   that packed per-state transition lists; the CSR producers must
   reproduce them bit for bit, edge order within each state included.
   Every producer is a function of its input alone (labels are ordered
   by name, never by interned id), so the pins hold whatever the rest
   of the suite interned before. *)

module Lts = Dpma_lts.Lts
module Bisim = Dpma_lts.Bisim
module Tau = Dpma_lts.Tau
module Diagnose = Dpma_lts.Diagnose
module Hml = Dpma_lts.Hml
module NI = Dpma_core.Noninterference
module Pipeline = Dpma_core.Pipeline

let labels = [| Lts.tau; Lts.obs "a"; Lts.obs "b"; Lts.obs "c" |]

let functional_spec (study : Pipeline.study) =
  Option.value ~default:study.Pipeline.spec study.functional_spec

let rpc = Dpma_models.Rpc.study Dpma_models.Rpc.default_params

let streaming = Dpma_models.Streaming.study Dpma_models.Streaming.default_params

(* The LTS producers of the noninterference front and of lumping —
   quotients, saturation, determinization, reachability pruning — pinned
   on both paper studies at one and two jobs (digests captured from the
   list-packing producers): state numbering, edge order within each
   state, first-seen rates and state names must not move. The lumped LTS
   is the one [Markov.analyze_lts_lumped] solves, so it is taken from the
   rated model; the rest run on the functional one. *)
let names_digest (l : Lts.t) =
  Digest.to_hex
    (Digest.string (String.concat "\n" (List.init l.Lts.num_states l.Lts.state_name)))

let ints_digest a =
  Digest.to_hex
    (Digest.string (String.concat "," (Array.to_list (Array.map string_of_int a))))

let test_pinned_producer_digests () =
  let check name (study : Pipeline.study) ~strong ~weak ~det ~lumped ~names
      ~front =
    let fspec = functional_spec study in
    let high = NI.mem_of study.Pipeline.high and low = NI.mem_of study.low in
    List.iter
      (fun jobs ->
        let par_cutoff = if jobs > 1 then 0 else 1024 in
        let tag what = Printf.sprintf "%s %s (jobs %d)" name what jobs in
        let f = Lts.of_spec ~jobs fspec in
        let full = Lts.of_spec ~jobs study.Pipeline.spec in
        let ms = Bisim.minimize_strong ~jobs ~par_cutoff f in
        let outputs =
          [ ("minimize_strong", ms);
            ("minimize_weak", Bisim.minimize_weak ~jobs ~par_cutoff f);
            ("determinize", Bisim.determinize (fst (NI.observed_pair f ~high ~low)));
            ( "lumped",
              Lts.quotient_by_representative full
                (Bisim.markovian_partition ~jobs ~par_cutoff full) ) ]
        in
        List.iter2
          (fun (what, l) pin -> Alcotest.(check string) (tag what) pin (Lts_fixture.csr_digest l))
          outputs [ strong; weak; det; lumped ];
        Alcotest.(check (list string)) (tag "state names") names
          (List.map (fun (_, l) -> names_digest l) outputs);
        let verdict =
          match Bisim.weak_front_check ~jobs ~par_cutoff (NI.front ~jobs f ~high ~low) with
          | Bisim.Product_secure { partition; rounds } ->
              Printf.sprintf "secure %d %s" rounds (ints_digest partition)
          | Bisim.Product_insecure t -> Printf.sprintf "insecure %d" t.Bisim.split_round
        in
        Alcotest.(check string) (tag "weak front") front verdict)
      [ 1; 2 ]
  in
  check "rpc" rpc
    ~strong:"b0edf208a7db436ceda885bee47968b6"
    ~weak:"7da99bcdecdde6330565350ae8fa4fb9"
    ~det:"b9877afa58e7e5141798694989e007d2"
    ~lumped:"0f4c95ea97d81e5d6b7d519a31d0f569"
    ~names:
      [ "995be55134074604fa5566ca5318858b"; "995be55134074604fa5566ca5318858b";
        "b9ed89947e763704361cad93baacc9e3"; "995be55134074604fa5566ca5318858b" ]
    ~front:"secure 6 ebca65a6a330e44e3af2941334379598";
  check "streaming" streaming
    ~strong:"9f35965b94b2b8a32b25804a7222bd1c"
    ~weak:"e3f2e87d7cb0581accf53109506757a9"
    ~det:"86178a8000baa46eee7aafa9b0d4f30f"
    ~lumped:"b39b8463411cad4c1707afc547431574"
    ~names:
      [ "afc46bf82e7edf4f9a39886989164978"; "afc46bf82e7edf4f9a39886989164978";
        "4bbee92426fd507dc82c18d3361f38f7"; "0ba6f8e56b26979e949c54bd923555e4" ]
    ~front:"secure 5 bfccfc4206030c3924435a8953349f0c"

(* The same producers on 300 seeded random LTSs with mixed rates (so
   quotients meet duplicate edges with different first-seen rates),
   unreachable states (so pruning drops some), tau cycles and pairs that
   the product front finds insecure (so the trail's formula is
   extracted). Every output goes into one digest, captured from the
   list-packing producers. *)
let random_rated_lts st =
  let n = 1 + Random.State.int st 9 in
  let m = Random.State.int st 24 in
  let edges =
    List.init m (fun _ ->
        let src = Random.State.int st n in
        let lab = labels.(Random.State.int st (Array.length labels)) in
        let kind = Random.State.int st 4 in
        let value = [| 0.5; 1.0; 2.0 |].(Random.State.int st 3) in
        let prio = if kind = 2 then Random.State.int st 3 else 0 in
        (src, lab, kind, (if kind = 0 then 0.0 else value), prio,
         Random.State.int st n))
  in
  let row = Array.make (n + 1) 0 in
  List.iter (fun (s, _, _, _, _, _) -> row.(s + 1) <- row.(s + 1) + 1) edges;
  for s = 0 to n - 1 do
    row.(s + 1) <- row.(s + 1) + row.(s)
  done;
  let fill = Array.sub row 0 n in
  let lab = Array.make m 0 and tgt = Array.make m 0 in
  let rate_kind = Array.make m 0 and rate_val = Array.make m 0.0 in
  let rate_prio = Array.make m 0 in
  List.iter
    (fun (s, l, k, v, p, t) ->
      let i = fill.(s) in
      fill.(s) <- i + 1;
      lab.(i) <- l;
      tgt.(i) <- t;
      rate_kind.(i) <- k;
      rate_val.(i) <- v;
      rate_prio.(i) <- p)
    edges;
  Lts.of_csr ~init:0 ~state_name:(Printf.sprintf "s%d") ~row ~lab ~tgt
    ~rate_kind ~rate_val ~rate_prio

let test_pinned_generated_producers () =
  let st = Random.State.make [| 25 |] in
  let b = Buffer.create 65536 in
  let add s = Buffer.add_string b s; Buffer.add_char b '\n' in
  let add_lts l = add (Lts_fixture.csr_digest l); add (names_digest l) in
  for _ = 1 to 300 do
    let l = random_rated_lts st and l2 = random_rated_lts st in
    add_lts (Bisim.minimize_strong l);
    add_lts (Bisim.minimize_weak l);
    add_lts (Bisim.determinize l);
    add_lts (Tau.saturate l);
    add_lts (Lts.quotient l (Array.init l.Lts.num_states (fun s -> s mod 3)));
    add_lts (Lts.quotient_by_representative l (Bisim.markovian_partition l));
    let front = Bisim.product_front l l2 in
    (match Bisim.weak_front_check front with
    | Bisim.Product_secure { partition; rounds } ->
        add (Printf.sprintf "secure %d %s" rounds (ints_digest partition))
    | Bisim.Product_insecure t ->
        add (Printf.sprintf "insecure %d" t.Bisim.split_round);
        add (Hml.to_string ~weak:true (Diagnose.of_product_trail t)));
    add (string_of_bool (Bisim.trace_front_secure front));
    add (string_of_bool (Bisim.branching_front_secure front));
    let union, ia, ib = Lts.disjoint_union l l2 in
    add
      (match Diagnose.distinguishing_formula union ia ib with
      | None -> "bisimilar"
      | Some f -> Hml.to_string f)
  done;
  Alcotest.(check string) "digest of every producer output"
    "9542b1cf07d7049323b6923dbced93d1"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let suite =
  [
    Alcotest.test_case "paper studies" `Slow test_pinned_producer_digests;
    Alcotest.test_case "generated LTSs" `Quick test_pinned_generated_producers;
  ]
