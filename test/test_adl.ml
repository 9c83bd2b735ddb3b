(* Tests for the Æmilia front end: lexer, parser (including the paper's
   verbatim specification text), static checks, elaboration. *)

module Ast = Dpma_adl.Ast
module Parser = Dpma_adl.Parser
module Lexer = Dpma_adl.Lexer
module Elaborate = Dpma_adl.Elaborate
module Lts = Dpma_lts.Lts
module Dist = Dpma_dist.Dist

(* The simplified rpc specification exactly as printed in Sect. 2.3 of the
   paper (modulo the ideal-channel AET being listed once). *)
let paper_text =
  {|
ARCHI_TYPE RPC_DPM_Untimed(void)

ARCHI_ELEM_TYPES

ELEM_TYPE Server_Type(void)
BEHAVIOR
Idle_Server(void; void) =
  choice {
    <receive_rpc_packet, _> . Busy_Server(),
    <receive_shutdown, _> . Sleeping_Server()
  };
Busy_Server(void; void) =
  choice {
    <prepare_result_packet, _> . Responding_Server(),
    <receive_shutdown, _> . Sleeping_Server()
  };
Responding_Server(void; void) =
  choice {
    <send_result_packet, _> . Idle_Server(),
    <receive_shutdown, _> . Sleeping_Server()
  };
Sleeping_Server(void; void) =
  <receive_rpc_packet, _> . Awaking_Server();
Awaking_Server(void; void) =
  <awake, _> . Busy_Server()
INPUT_INTERACTIONS UNI receive_rpc_packet;
                       receive_shutdown
OUTPUT_INTERACTIONS UNI send_result_packet

ELEM_TYPE Radio_Channel_Type(void)
BEHAVIOR
Radio_Channel(void; void) =
  <get_packet, _> . <propagate_packet, _> .
    <deliver_packet, _> . Radio_Channel()
INPUT_INTERACTIONS UNI get_packet
OUTPUT_INTERACTIONS UNI deliver_packet

ELEM_TYPE Sync_Client_Type(void)
BEHAVIOR
Sync_Client(void; void) =
  <send_rpc_packet, _> . <receive_result_packet, _> .
    <process_result_packet, _> . Sync_Client()
INPUT_INTERACTIONS UNI receive_result_packet
OUTPUT_INTERACTIONS UNI send_rpc_packet

ELEM_TYPE DPM_Type(void)
BEHAVIOR
DPM_Beh(void; void) =
  <send_shutdown, _> . DPM_Beh()
INPUT_INTERACTIONS void
OUTPUT_INTERACTIONS UNI send_shutdown

ARCHI_TOPOLOGY

ARCHI_ELEM_INSTANCES
S : Server_Type();
RCS : Radio_Channel_Type();
RSC : Radio_Channel_Type();
C : Sync_Client_Type();
DPM : DPM_Type()

ARCHI_ATTACHMENTS
FROM C.send_rpc_packet TO RCS.get_packet;
FROM RCS.deliver_packet TO S.receive_rpc_packet;
FROM S.send_result_packet TO RSC.get_packet;
FROM RSC.deliver_packet TO C.receive_result_packet;
FROM DPM.send_shutdown TO S.receive_shutdown

END
|}

let test_parse_paper_text () =
  let archi = Parser.parse paper_text in
  Alcotest.(check string) "name" "RPC_DPM_Untimed" archi.Ast.name;
  Alcotest.(check int) "element types" 4 (List.length archi.Ast.elem_types);
  Alcotest.(check int) "instances" 5 (List.length archi.Ast.instances);
  Alcotest.(check int) "attachments" 5 (List.length archi.Ast.attachments);
  let server = List.hd archi.Ast.elem_types in
  Alcotest.(check string) "server type" "Server_Type" server.Ast.et_name;
  Alcotest.(check int) "server equations" 5 (List.length server.Ast.equations);
  Alcotest.(check (list string)) "server inputs"
    [ "receive_rpc_packet"; "receive_shutdown" ]
    server.Ast.inputs

let test_paper_text_matches_programmatic_model () =
  (* The text above and Rpc.simplified_archi build identical ASTs. *)
  let parsed = Parser.parse paper_text in
  let built = Dpma_models.Rpc.simplified_archi () in
  Alcotest.(check bool) "equal ASTs" true (parsed = built)

let test_pp_parse_roundtrip () =
  let roundtrip archi =
    let printed = Format.asprintf "%a" Ast.pp archi in
    match Parser.parse_result printed with
    | Ok archi' ->
        if archi <> archi' then
          Alcotest.failf "roundtrip mismatch for %s:@.%s" archi.Ast.name printed
    | Error e -> Alcotest.failf "roundtrip parse error for %s: %s" archi.Ast.name e
  in
  roundtrip (Dpma_models.Rpc.simplified_archi ());
  roundtrip (Dpma_models.Rpc.archi Dpma_models.Rpc.default_params);
  roundtrip (Dpma_models.Rpc.archi ~mode:Dpma_models.Rpc.General Dpma_models.Rpc.default_params);
  roundtrip (Dpma_models.Streaming.archi Dpma_models.Streaming.default_params)

let expect_parse_error src fragment =
  match Parser.parse_result src with
  | Ok _ -> Alcotest.failf "expected parse error (%s)" fragment
  | Error msg ->
      let has_substring s sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        m = 0 || go 0
      in
      if not (has_substring msg fragment) then
        Alcotest.failf "error %S does not mention %S" msg fragment

let minimal_ok =
  {|ARCHI_TYPE T(void)
    ARCHI_ELEM_TYPES
    ELEM_TYPE A_Type(void)
    BEHAVIOR A_Beh(void; void) = <act, exp(1.0)> . A_Beh()
    INPUT_INTERACTIONS void
    OUTPUT_INTERACTIONS void
    ARCHI_TOPOLOGY
    ARCHI_ELEM_INSTANCES A : A_Type()
    ARCHI_ATTACHMENTS void
    END|}

let test_parse_minimal () =
  let archi = Parser.parse minimal_ok in
  Alcotest.(check int) "one instance" 1 (List.length archi.Ast.instances);
  Alcotest.(check int) "no attachments" 0 (List.length archi.Ast.attachments)

let test_parse_rates () =
  let src =
    {|ARCHI_TYPE T(void)
      ARCHI_ELEM_TYPES
      ELEM_TYPE A_Type(void)
      BEHAVIOR A_Beh(void; void) =
        choice {
          <a1, exp(2.5)> . A_Beh(),
          <a2, inf(3, 0.5)> . A_Beh(),
          <a3, _(2.0)> . A_Beh(),
          <a4, det(1.5)> . A_Beh(),
          <a5, norm(0.8, 0.03)> . A_Beh(),
          <a6, unif(1, 2)> . A_Beh(),
          <a7, erlang(3, 6)> . A_Beh(),
          <a8, weibull(1.5, 2)> . A_Beh(),
          <a9, _> . A_Beh()
        }
      INPUT_INTERACTIONS void
      OUTPUT_INTERACTIONS void
      ARCHI_TOPOLOGY
      ARCHI_ELEM_INSTANCES A : A_Type()
      ARCHI_ATTACHMENTS void
      END|}
  in
  let archi = Parser.parse src in
  let et = List.hd archi.Ast.elem_types in
  let body = (List.hd et.Ast.equations).Ast.eq_body in
  match body with
  | Ast.Choice branches ->
      Alcotest.(check int) "nine branches" 9 (List.length branches);
      let rate_of i =
        match List.nth branches i with
        | Ast.Prefix (_, r, _) -> r
        | _ -> Alcotest.fail "expected prefix"
      in
      Alcotest.(check bool) "exp" true (rate_of 0 = Ast.Exp 2.5);
      Alcotest.(check bool) "inf" true (rate_of 1 = Ast.Inf (3, 0.5));
      Alcotest.(check bool) "weighted passive" true (rate_of 2 = Ast.Passive 2.0);
      Alcotest.(check bool) "det" true (rate_of 3 = Ast.Gen (Dist.Deterministic 1.5));
      Alcotest.(check bool) "norm" true (rate_of 4 = Ast.Gen (Dist.Normal (0.8, 0.03)));
      Alcotest.(check bool) "plain passive" true (rate_of 8 = Ast.Passive 1.0)
  | _ -> Alcotest.fail "expected choice"

let test_parse_errors () =
  expect_parse_error "ARCHI_TYPE" "identifier";
  expect_parse_error
    (String.concat " " [ "ARCHI_TYPE T(void) ARCHI_ELEM_TYPES ARCHI_TOPOLOGY";
                         "ARCHI_ELEM_INSTANCES A : B() ARCHI_ATTACHMENTS void" ])
    "END";
  expect_parse_error
    {|ARCHI_TYPE T(integer x) ARCHI_ELEM_TYPES ARCHI_TOPOLOGY
      ARCHI_ELEM_INSTANCES A : B() ARCHI_ATTACHMENTS void END|}
    "not allowed";
  expect_parse_error
    {|ARCHI_TYPE T(int x) ARCHI_ELEM_TYPES ARCHI_TOPOLOGY
      ARCHI_ELEM_INSTANCES A : B() ARCHI_ATTACHMENTS void END|}
    "integer";
  expect_parse_error
    {|ARCHI_TYPE T(void)
      ARCHI_ELEM_TYPES
      ELEM_TYPE A_Type(void)
      BEHAVIOR A_Beh(void; void) = <a, exp(0)> . A_Beh()
      INPUT_INTERACTIONS void OUTPUT_INTERACTIONS void
      ARCHI_TOPOLOGY ARCHI_ELEM_INSTANCES A : A_Type()
      ARCHI_ATTACHMENTS void END|}
    "positive";
  expect_parse_error
    {|ARCHI_TYPE T(void)
      ARCHI_ELEM_TYPES
      ELEM_TYPE A_Type(void)
      BEHAVIOR A_Beh(void; void) = <a, _> . A_Beh()
      INPUT_INTERACTIONS AND a OUTPUT_INTERACTIONS void
      ARCHI_TOPOLOGY ARCHI_ELEM_INSTANCES A : A_Type()
      ARCHI_ATTACHMENTS void END|}
    "UNI";
  expect_parse_error "ARCHI_TYPE T(void) @" "unexpected character"

(* Distribution literals go through [Dist.of_args], the rules
   [Dist.of_string] applies: a bad literal is a parse error at the rate's
   keyword, never a value that trips an assertion in the sampler, and a
   fractional Erlang stage count is refused rather than truncated. *)
let test_parse_distribution_literals () =
  let src rate =
    String.concat "\n"
      [ "ARCHI_TYPE T(void)"; "ARCHI_ELEM_TYPES"; "ELEM_TYPE A_Type(void)";
        Printf.sprintf "BEHAVIOR A_Beh(void; void) = <a, %s> . A_Beh()" rate;
        "INPUT_INTERACTIONS void OUTPUT_INTERACTIONS void";
        "ARCHI_TOPOLOGY ARCHI_ELEM_INSTANCES A : A_Type()";
        "ARCHI_ATTACHMENTS void END" ]
  in
  List.iter
    (fun (rate, expected) ->
      match Parser.parse_result (src rate) with
      | Ok _ -> Alcotest.failf "%s must be rejected" rate
      | Error msg -> Alcotest.(check string) rate expected msg)
    [ ("unif(3,1)", "line 4, column 34: unif(3,1): unif(a,b) needs 0 <= a <= b");
      ( "erlang(1.5,2)",
        "line 4, column 34: erlang(1.5,2): erlang(k,m) needs an integer k >= \
         1 and m > 0" );
      ( "erlang(0,1)",
        "line 4, column 34: erlang(0,1): erlang(k,m) needs an integer k >= 1 \
         and m > 0" );
      ("weibull(0,1)", "line 4, column 34: weibull(0,1): weibull(k,l) needs k > 0 and l > 0");
      ("det(1,2)", "line 4, column 34: det(1,2): det takes 1 argument");
      ("norm(1)", "line 4, column 34: norm(1): norm takes 2 arguments") ];
  let rate_of r =
    match (List.hd (Parser.parse (src r)).Ast.elem_types).Ast.equations with
    | { Ast.eq_body = Ast.Prefix (_, rate, _); _ } :: _ -> rate
    | _ -> Alcotest.fail "expected a prefix"
  in
  Alcotest.(check bool) "erlang(2, 6)" true
    (rate_of "erlang(2, 6)" = Ast.Gen (Dist.Erlang (2, 6.0)));
  Alcotest.(check bool) "unif(1, 1)" true
    (rate_of "unif(1, 1)" = Ast.Gen (Dist.Uniform (1.0, 1.0)))

let test_lexer_positions () =
  (try
     ignore (Lexer.tokenize "abc\n  @");
     Alcotest.fail "expected lex error"
   with Lexer.Lex_error { line; col; _ } ->
     Alcotest.(check int) "line" 2 line;
     Alcotest.(check int) "col" 3 col)

let test_lexer_comments () =
  let tokens = Lexer.tokenize "a % comment here\nb // another\nc" in
  let idents =
    List.filter_map
      (fun { Lexer.token; _ } ->
        match token with Lexer.IDENT s -> Some s | _ -> None)
      tokens
  in
  Alcotest.(check (list string)) "comments stripped" [ "a"; "b"; "c" ] idents

(* CRLF and lone-CR line endings are normalized before position
   counting, and a tab advances one column: a DOS-edited specification
   must lex, parse, and report errors at the same positions as its
   Unix twin. *)
let test_lexer_crlf_positions () =
  List.iter
    (fun (name, src) ->
      try
        ignore (Lexer.tokenize src);
        Alcotest.fail "expected lex error"
      with Lexer.Lex_error { line; col; _ } ->
        Alcotest.(check int) (name ^ ": line") 2 line;
        Alcotest.(check int) (name ^ ": col") 3 col)
    [ ("crlf", "abc\r\n  @"); ("lone cr", "abc\r  @") ];
  try
    ignore (Lexer.tokenize "\t\t@");
    Alcotest.fail "expected lex error"
  with Lexer.Lex_error { line; col; _ } ->
    Alcotest.(check int) "tab line" 1 line;
    Alcotest.(check int) "tab col" 3 col

let test_crlf_roundtrip () =
  let to_crlf s = String.concat "\r\n" (String.split_on_char '\n' s) in
  let unix = Parser.parse paper_text in
  let dos = Parser.parse (to_crlf paper_text) in
  Alcotest.(check bool) "CRLF parse equals LF parse" true (unix = dos)

(* ------------------------------------------------------------------ *)
(* Static checks *)

let wrap_elem body =
  Printf.sprintf
    {|ARCHI_TYPE T(void)
      ARCHI_ELEM_TYPES
      %s
      ARCHI_TOPOLOGY
      ARCHI_ELEM_INSTANCES A : A_Type()
      ARCHI_ATTACHMENTS void
      END|}
    body

let expect_check_error src fragment =
  let archi = Parser.parse src in
  match Elaborate.check archi with
  | () -> Alcotest.failf "expected check error mentioning %S" fragment
  | exception Elaborate.Check_error msg ->
      let has_substring s sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        m = 0 || go 0
      in
      if not (has_substring msg fragment) then
        Alcotest.failf "error %S does not mention %S" msg fragment

let test_check_undefined_call () =
  expect_check_error
    (wrap_elem
       {|ELEM_TYPE A_Type(void)
         BEHAVIOR A_Beh(void; void) = <a, _> . Missing()
         INPUT_INTERACTIONS void OUTPUT_INTERACTIONS void|})
    "undefined behavior"

let test_check_undeclared_interaction_used () =
  expect_check_error
    (wrap_elem
       {|ELEM_TYPE A_Type(void)
         BEHAVIOR A_Beh(void; void) = <a, _> . A_Beh()
         INPUT_INTERACTIONS UNI ghost OUTPUT_INTERACTIONS void|})
    "does not occur"

let test_check_tau_reserved () =
  expect_check_error
    (wrap_elem
       {|ELEM_TYPE A_Type(void)
         BEHAVIOR A_Beh(void; void) = <tau, _> . A_Beh()
         INPUT_INTERACTIONS void OUTPUT_INTERACTIONS void|})
    "reserved"

let test_check_attachment_errors () =
  let base elems attaches =
    Printf.sprintf
      {|ARCHI_TYPE T(void)
        ARCHI_ELEM_TYPES
        %s
        ARCHI_TOPOLOGY
        ARCHI_ELEM_INSTANCES A : A_Type(); B : B_Type()
        ARCHI_ATTACHMENTS %s
        END|}
      elems attaches
  in
  let elems =
    {|ELEM_TYPE A_Type(void)
      BEHAVIOR A_Beh(void; void) = <out, _> . A_Beh()
      INPUT_INTERACTIONS void OUTPUT_INTERACTIONS UNI out
      ELEM_TYPE B_Type(void)
      BEHAVIOR B_Beh(void; void) = <inp, _> . B_Beh()
      INPUT_INTERACTIONS UNI inp OUTPUT_INTERACTIONS void|}
  in
  expect_check_error (base elems "FROM A.out TO B.missing") "not a declared input";
  expect_check_error (base elems "FROM B.inp TO A.out") "not a declared output";
  expect_check_error
    (base elems "FROM A.out TO B.inp; FROM A.out TO B.inp")
    "attached more than once";
  expect_check_error (base elems "FROM A.out TO C.inp") "undefined instance"

let test_check_duplicates () =
  expect_check_error
    {|ARCHI_TYPE T(void)
      ARCHI_ELEM_TYPES
      ELEM_TYPE A_Type(void)
      BEHAVIOR A_Beh(void; void) = <a, _> . A_Beh()
      INPUT_INTERACTIONS void OUTPUT_INTERACTIONS void
      ARCHI_TOPOLOGY
      ARCHI_ELEM_INSTANCES A : A_Type(); A : A_Type()
      ARCHI_ATTACHMENTS void END|}
    "duplicate instance"

(* ------------------------------------------------------------------ *)
(* Elaboration *)

let test_elaborate_channels_and_timings () =
  let el =
    Dpma_models.Rpc.elaborate ~mode:Dpma_models.Rpc.General
      Dpma_models.Rpc.default_params
  in
  (* The propagation delay is a per-channel normal distribution. *)
  Alcotest.(check bool) "RCS propagation override" true
    (List.mem_assoc "RCS.propagate_packet" el.Elaborate.general_timings);
  Alcotest.(check bool) "shutdown channel override" true
    (List.mem_assoc "DPM.send_shutdown#S.receive_shutdown"
       el.Elaborate.general_timings);
  Alcotest.(check (list string)) "no open ports" []
    el.Elaborate.unattached_interactions;
  let actions = Elaborate.actions_of_instance el "C" in
  Alcotest.(check bool) "client channel name" true
    (List.mem "C.send_rpc_packet#RCS.get_packet" actions);
  Alcotest.(check bool) "client internal action" true
    (List.mem "C.process_result_packet" actions)

let test_elaborate_pipeline_lts () =
  (* Two-stage pipeline: producer -> consumer over one channel. *)
  let src =
    {|ARCHI_TYPE P(void)
      ARCHI_ELEM_TYPES
      ELEM_TYPE Producer_Type(void)
      BEHAVIOR Producing(void; void) = <produce, exp(1.0)> . <send, inf> . Producing()
      INPUT_INTERACTIONS void OUTPUT_INTERACTIONS UNI send
      ELEM_TYPE Consumer_Type(void)
      BEHAVIOR Consuming(void; void) = <receive, _> . <consume, exp(2.0)> . Consuming()
      INPUT_INTERACTIONS UNI receive OUTPUT_INTERACTIONS void
      ARCHI_TOPOLOGY
      ARCHI_ELEM_INSTANCES Prod : Producer_Type(); Cons : Consumer_Type()
      ARCHI_ATTACHMENTS FROM Prod.send TO Cons.receive
      END|}
  in
  let el = Elaborate.elaborate (Parser.parse src) in
  let lts = Lts.of_spec el.Elaborate.spec in
  (* produce; sync; consume — but produce can overlap consume: states =
     (2 producer) x (2 consumer) = 4 reachable. *)
  Alcotest.(check int) "four states" 4 lts.Lts.num_states;
  Alcotest.(check bool) "channel action present" true
    (Lts.labels lts
    |> List.exists (fun l ->
           String.equal (Lts.label_name l) "Prod.send#Cons.receive"))

let test_elaborate_unattached_reported () =
  let src =
    {|ARCHI_TYPE P(void)
      ARCHI_ELEM_TYPES
      ELEM_TYPE A_Type(void)
      BEHAVIOR A_Beh(void; void) = <out, exp(1.0)> . A_Beh()
      INPUT_INTERACTIONS void OUTPUT_INTERACTIONS UNI out
      ARCHI_TOPOLOGY
      ARCHI_ELEM_INSTANCES A : A_Type()
      ARCHI_ATTACHMENTS void
      END|}
  in
  let el = Elaborate.elaborate (Parser.parse src) in
  Alcotest.(check (list string)) "open port listed" [ "A.out" ]
    el.Elaborate.unattached_interactions

let test_elaborate_conflicting_timings () =
  let src =
    {|ARCHI_TYPE P(void)
      ARCHI_ELEM_TYPES
      ELEM_TYPE A_Type(void)
      BEHAVIOR A_Beh(void; void) =
        choice { <x, det(1.0)> . A_Beh(), <x, det(2.0)> . A_Beh() }
      INPUT_INTERACTIONS void OUTPUT_INTERACTIONS void
      ARCHI_TOPOLOGY
      ARCHI_ELEM_INSTANCES A : A_Type()
      ARCHI_ATTACHMENTS void
      END|}
  in
  (try
     ignore (Elaborate.elaborate (Parser.parse src));
     Alcotest.fail "expected conflicting-timings error"
   with Elaborate.Check_error _ -> ())

let suite =
  [
    Alcotest.test_case "parse paper text" `Quick test_parse_paper_text;
    Alcotest.test_case "paper text = programmatic model" `Quick
      test_paper_text_matches_programmatic_model;
    Alcotest.test_case "pp/parse roundtrip" `Quick test_pp_parse_roundtrip;
    Alcotest.test_case "parse minimal" `Quick test_parse_minimal;
    Alcotest.test_case "parse rates" `Quick test_parse_rates;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "parse distribution literals" `Quick
      test_parse_distribution_literals;
    Alcotest.test_case "lexer positions" `Quick test_lexer_positions;
    Alcotest.test_case "lexer comments" `Quick test_lexer_comments;
    Alcotest.test_case "lexer CRLF/tab positions" `Quick
      test_lexer_crlf_positions;
    Alcotest.test_case "CRLF round-trip" `Quick test_crlf_roundtrip;
    Alcotest.test_case "check undefined call" `Quick test_check_undefined_call;
    Alcotest.test_case "check undeclared interaction" `Quick
      test_check_undeclared_interaction_used;
    Alcotest.test_case "check tau reserved" `Quick test_check_tau_reserved;
    Alcotest.test_case "check attachments" `Quick test_check_attachment_errors;
    Alcotest.test_case "check duplicates" `Quick test_check_duplicates;
    Alcotest.test_case "elaborate channels/timings" `Quick
      test_elaborate_channels_and_timings;
    Alcotest.test_case "elaborate pipeline LTS" `Quick test_elaborate_pipeline_lts;
    Alcotest.test_case "elaborate unattached" `Quick test_elaborate_unattached_reported;
    Alcotest.test_case "elaborate conflicting timings" `Quick
      test_elaborate_conflicting_timings;
  ]

(* ------------------------------------------------------------------ *)
(* Data parameters, expressions, guards                                 *)

let queue_source capacity lambda mu =
  Printf.sprintf
    {|ARCHI_TYPE Q(void)
      ARCHI_ELEM_TYPES
      ELEM_TYPE Source_Type(void)
      BEHAVIOR Source(void; void) = <emit, exp(%g)> . Source()
      INPUT_INTERACTIONS void OUTPUT_INTERACTIONS UNI emit
      ELEM_TYPE Queue_Type(const integer capacity)
      BEHAVIOR
      Queue_Start(void; void) = Queue(0);
      Queue(integer h; void) =
        choice {
          cond(h < capacity) -> <accept, _> . Queue(h + 1),
          cond(h = capacity) -> <accept, _> . <reject, inf(2, 1)> . Queue(capacity),
          cond(h > 0) -> <serve, exp(%g)> . Queue(h - 1)
        }
      INPUT_INTERACTIONS UNI accept OUTPUT_INTERACTIONS void
      ARCHI_TOPOLOGY
      ARCHI_ELEM_INSTANCES SRC : Source_Type(); Q : Queue_Type(%d)
      ARCHI_ATTACHMENTS FROM SRC.emit TO Q.accept
      END|}
    lambda mu capacity

let test_parameterized_queue_expansion () =
  let el = Elaborate.elaborate (Parser.parse (queue_source 5 2.0 3.0)) in
  let lts = Lts.of_spec el.Elaborate.spec in
  (* Occupancies 0..5 plus the starter and the post-reject microstate. *)
  Alcotest.(check int) "8 reachable states" 8 lts.Lts.num_states;
  Alcotest.(check int) "no deadlock" 0 (List.length (Lts.deadlock_states lts))

let test_parameterized_queue_closed_form () =
  (* M/M/1/K: utilization = 1 - pi0 with pi0 = (1-rho)/(1-rho^(K+1)). *)
  let lambda = 2.0 and mu = 3.0 and k = 5 in
  let el = Elaborate.elaborate (Parser.parse (queue_source k lambda mu)) in
  let ctmc = Dpma_ctmc.Ctmc.of_lts (Lts.of_spec el.Elaborate.spec) in
  let pi = Dpma_ctmc.Ctmc.steady_state ctmc in
  let rho = lambda /. mu in
  let pi0 = (1.0 -. rho) /. (1.0 -. (rho ** float_of_int (k + 1))) in
  Alcotest.(check (float 1e-9)) "utilization" (1.0 -. pi0)
    (Dpma_ctmc.Ctmc.probability_enabled ctmc pi "Q.serve");
  let pik = pi0 *. (rho ** float_of_int k) in
  Alcotest.(check (float 1e-9)) "rejection rate" (lambda *. pik)
    (Dpma_ctmc.Ctmc.throughput ctmc pi "Q.reject")

let test_expression_parsing_precedence () =
  let src =
    {|ARCHI_TYPE P(void)
      ARCHI_ELEM_TYPES
      ELEM_TYPE A_Type(void)
      BEHAVIOR
      Go_Start(void; void) = Go(1, true);
      Go(integer x, boolean b; void) =
        choice {
          cond(b && x + 2 * 3 = 7 || false) -> <yes, exp(1.0)> . Go(x, b),
          cond(!(x - 1 >= 1) && x mod 2 = 1) -> <odd, exp(1.0)> . Go(-x + 2, !b || b)
        }
      INPUT_INTERACTIONS void OUTPUT_INTERACTIONS void
      ARCHI_TOPOLOGY
      ARCHI_ELEM_INSTANCES A : A_Type()
      ARCHI_ATTACHMENTS void
      END|}
  in
  let el = Elaborate.elaborate (Parser.parse src) in
  let lts = Lts.of_spec el.Elaborate.spec in
  (* With x = 1, b = true: 1 + 2*3 = 7 so "yes" is enabled, and
     !(0 >= 1) && 1 mod 2 = 1 so "odd" is enabled; -1 + 2 = 1 loops. *)
  Alcotest.(check bool) "yes enabled" true
    (Lts.enables_label lts lts.Lts.init (Lts.obs "A.yes"));
  Alcotest.(check bool) "odd enabled" true
    (Lts.enables_label lts lts.Lts.init (Lts.obs "A.odd"))

let expect_elaborate_error src fragment =
  let archi = Parser.parse src in
  match Elaborate.elaborate archi with
  | _ -> Alcotest.failf "expected elaboration error mentioning %S" fragment
  | exception Elaborate.Check_error msg ->
      let has_substring s sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        m = 0 || go 0
      in
      if not (has_substring msg fragment) then
        Alcotest.failf "error %S does not mention %S" msg fragment

let param_wrap behavior =
  Printf.sprintf
    {|ARCHI_TYPE P(void)
      ARCHI_ELEM_TYPES
      ELEM_TYPE A_Type(void)
      BEHAVIOR
      %s
      INPUT_INTERACTIONS void OUTPUT_INTERACTIONS void
      ARCHI_TOPOLOGY
      ARCHI_ELEM_INSTANCES A : A_Type()
      ARCHI_ATTACHMENTS void
      END|}
    behavior

let test_data_type_errors () =
  expect_elaborate_error
    (param_wrap
       {|Go_Start(void; void) = Go(true);
         Go(integer x; void) = <a, exp(1.0)> . Go(x)|})
    "type";
  expect_elaborate_error
    (param_wrap
       {|Go_Start(void; void) = Go(1, 2);
         Go(integer x; void) = <a, exp(1.0)> . Go(x)|})
    "argument";
  expect_elaborate_error
    (param_wrap
       {|Go_Start(void; void) = Go(1);
         Go(integer x; void) = cond(x + 1) -> <a, exp(1.0)> . Go(x)|})
    "guard";
  expect_elaborate_error
    (param_wrap
       {|Go_Start(void; void) = Go(1);
         Go(integer x; void) = <a, exp(1.0)> . Go(y)|})
    "unbound";
  expect_elaborate_error
    (param_wrap {|Go(integer x; void) = <a, exp(1.0)> . Go(x)|})
    "initial behavior";
  expect_elaborate_error
    (param_wrap
       {|Go_Start(void; void) = Go(1);
         Go(integer x; void) = <a, exp(1.0)> . Go(x / (x - x))|})
    "division by zero"

let test_unbounded_expansion_detected () =
  (* A counter that grows forever must hit the expansion bound. *)
  let src =
    param_wrap
      {|Go_Start(void; void) = Go(0);
        Go(integer x; void) = <a, exp(1.0)> . Go(x + 1)|}
  in
  let archi = Parser.parse src in
  (try
     ignore (Elaborate.elaborate ~max_expansions:500 archi);
     Alcotest.fail "expected expansion bound error"
   with Elaborate.Check_error msg ->
     let has_substring s sub =
       let n = String.length s and m = String.length sub in
       let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
       go 0
     in
     Alcotest.(check bool) "mentions expansion" true
       (has_substring msg "expanded behaviors"))

let test_instance_const_errors () =
  let with_topology args =
    Printf.sprintf
      {|ARCHI_TYPE P(void)
        ARCHI_ELEM_TYPES
        ELEM_TYPE A_Type(const integer n)
        BEHAVIOR
        Go_Start(void; void) = Go(0);
        Go(integer x; void) = cond(x < n) -> <a, exp(1.0)> . Go(x + 1)
        INPUT_INTERACTIONS void OUTPUT_INTERACTIONS void
        ARCHI_TOPOLOGY
        ARCHI_ELEM_INSTANCES A : A_Type(%s)
        ARCHI_ATTACHMENTS void
        END|}
      args
  in
  expect_elaborate_error (with_topology "") "const argument";
  expect_elaborate_error (with_topology "true") "type";
  expect_elaborate_error (with_topology "n") "closed";
  (* And the happy path terminates in a deadlock after n steps. *)
  let el = Elaborate.elaborate (Parser.parse (with_topology "3")) in
  let lts = Lts.of_spec el.Elaborate.spec in
  Alcotest.(check int) "counter to 3 then stuck" 1
    (List.length (Lts.deadlock_states lts))

let test_parameterized_pp_roundtrip () =
  let archi = Parser.parse (queue_source 4 1.5 2.5) in
  let printed = Format.asprintf "%a" Ast.pp archi in
  match Parser.parse_result printed with
  | Ok archi' ->
      Alcotest.(check bool) "roundtrip equal" true (archi = archi')
  | Error e -> Alcotest.failf "roundtrip parse error: %s" e

let test_streaming_uses_parameters () =
  (* The streaming model's buffers are written with data parameters; their
     expanded constants carry the argument values in their names. *)
  let el =
    Dpma_models.Streaming.elaborate
      ~mode:Dpma_models.Streaming.Markovian ~monitors:false
      {
        Dpma_models.Streaming.default_params with
        ap_buffer_size = 2;
        client_buffer_size = 2;
      }
  in
  let names = List.map fst el.Elaborate.spec.Dpma_pa.Term.defs in
  Alcotest.(check bool) "expanded AP constant present" true
    (List.mem "AP.Ap(1)" names);
  Alcotest.(check bool) "expanded buffer constant present" true
    (List.mem "B.Buf(2)" names)

let param_suite =
  [
    Alcotest.test_case "parameterized queue expansion" `Quick
      test_parameterized_queue_expansion;
    Alcotest.test_case "parameterized queue closed form" `Quick
      test_parameterized_queue_closed_form;
    Alcotest.test_case "expression precedence" `Quick
      test_expression_parsing_precedence;
    Alcotest.test_case "data type errors" `Quick test_data_type_errors;
    Alcotest.test_case "unbounded expansion detected" `Quick
      test_unbounded_expansion_detected;
    Alcotest.test_case "instance const errors" `Quick test_instance_const_errors;
    Alcotest.test_case "parameterized pp roundtrip" `Quick
      test_parameterized_pp_roundtrip;
    Alcotest.test_case "streaming uses parameters" `Quick
      test_streaming_uses_parameters;
  ]

let suite = suite @ param_suite
