open Lexer

exception Parse_error of { line : int; col : int; message : string }

let reserved =
  [
    "ARCHI_TYPE"; "ARCHI_ELEM_TYPES"; "ELEM_TYPE"; "BEHAVIOR";
    "INPUT_INTERACTIONS"; "OUTPUT_INTERACTIONS"; "ARCHI_TOPOLOGY";
    "ARCHI_ELEM_INSTANCES"; "ARCHI_ATTACHMENTS"; "FROM"; "TO"; "END";
    "UNI"; "AND"; "OR";
  ]

let is_reserved s = List.mem s reserved

type state = { tokens : located array; mutable pos : int }

let peek st = st.tokens.(st.pos)

let error_at (loc : located) message =
  raise (Parse_error { line = loc.line; col = loc.col; message })

let next st =
  let t = peek st in
  if t.token <> EOF then st.pos <- st.pos + 1;
  t

let expect st token =
  let t = next st in
  if t.token <> token then
    error_at t
      (Format.asprintf "expected %a but found %a" pp_token token pp_token
         t.token)

let expect_ident st =
  let t = next st in
  match t.token with
  | IDENT s when not (is_reserved s) -> s
  | _ ->
      error_at t
        (Format.asprintf "expected an identifier, found %a" pp_token t.token)

let expect_keyword st kw =
  let t = next st in
  match t.token with
  | IDENT s when String.equal s kw -> ()
  | _ -> error_at t (Format.asprintf "expected %s, found %a" kw pp_token t.token)

let expect_number st =
  let t = next st in
  match t.token with
  | NUMBER f -> f
  | _ -> error_at t (Format.asprintf "expected a number, found %a" pp_token t.token)

let at_keyword st kw =
  match (peek st).token with IDENT s -> String.equal s kw | _ -> false

(* ------------------------------------------------------------------ *)
(* Data expressions: precedence-climbing parser.                        *)


let rec parse_expr st = parse_binary st 1

and parse_binary st min_level =
  let lhs = parse_unary st in
  parse_binary_rest st lhs min_level

and parse_binary_rest st lhs min_level =
  let op_of_token = function
    | OROR -> Some Ast.Or
    | ANDAND -> Some Ast.And
    | LANGLE -> Some Ast.Lt
    | LE -> Some Ast.Le
    | RANGLE -> Some Ast.Gt
    | GE -> Some Ast.Ge
    | EQUALS -> Some Ast.Eq
    | NEQ -> Some Ast.Ne
    | PLUS -> Some Ast.Add
    | MINUS -> Some Ast.Sub
    | STAR -> Some Ast.Mul
    | SLASH -> Some Ast.Div
    | IDENT "mod" -> Some Ast.Mod
    | _ -> None
  in
  match op_of_token (peek st).token with
  | Some op when Ast.binop_level op >= min_level ->
      ignore (next st);
      (* Left associativity: the right operand binds one level tighter. *)
      let rhs = parse_binary st (Ast.binop_level op + 1) in
      parse_binary_rest st (Ast.Binop (op, lhs, rhs)) min_level
  | _ -> lhs

and parse_unary st =
  let t = peek st in
  match t.token with
  | MINUS ->
      ignore (next st);
      Ast.Neg (parse_unary st)
  | BANG ->
      ignore (next st);
      Ast.Not (parse_unary st)
  | LPAREN ->
      ignore (next st);
      let e = parse_expr st in
      expect st RPAREN;
      e
  | NUMBER f when Float.is_integer f ->
      ignore (next st);
      Ast.Int (int_of_float f)
  | NUMBER _ -> error_at t "only integer literals are allowed in expressions"
  | IDENT "true" ->
      ignore (next st);
      Ast.Bool true
  | IDENT "false" ->
      ignore (next st);
      Ast.Bool false
  | IDENT s when not (is_reserved s) ->
      ignore (next st);
      Ast.Var s
  | _ ->
      error_at t
        (Format.asprintf "expected an expression, found %a" pp_token t.token)

let parse_arg_list st =
  (* Caller has consumed '('. Empty list when ')' follows immediately. *)
  if (peek st).token = RPAREN then begin
    ignore (next st);
    []
  end
  else begin
    let rec go acc =
      let e = parse_expr st in
      let acc = e :: acc in
      match (next st).token with
      | COMMA -> go acc
      | RPAREN -> List.rev acc
      | _ -> error_at (peek st) "expected ',' or ')' in argument list"
    in
    go []
  end

(* ------------------------------------------------------------------ *)
(* Parameter lists                                                      *)

let parse_ptype st =
  let t = next st in
  match t.token with
  | IDENT "integer" -> Ast.TInt
  | IDENT "boolean" -> Ast.TBool
  | IDENT ("int" | "bool") ->
      error_at t "write 'integer' / 'boolean' for parameter types"
  | _ ->
      error_at t
        (Format.asprintf "expected a parameter type, found %a" pp_token t.token)

(* "(void)", "(void; void)", "(integer x, boolean b; void)",
   "(const integer n)". The optional "; void" rate-parameter slot is
   accepted and ignored, as in the paper's listings. *)
let parse_params ~allow_const st =
  expect st LPAREN;
  let params =
    if at_keyword st "void" then begin
      ignore (next st);
      []
    end
    else if (peek st).token = RPAREN then []
    else begin
      let rec go acc =
        let t = peek st in
        (match t.token with
        | IDENT "const" ->
            if allow_const then ignore (next st)
            else error_at t "const parameters are only allowed on element types"
        | _ -> ());
        let p_type = parse_ptype st in
        let p_name = expect_ident st in
        let acc = { Ast.p_name; p_type } :: acc in
        if (peek st).token = COMMA then begin
          ignore (next st);
          go acc
        end
        else List.rev acc
      in
      go []
    end
  in
  if (peek st).token = SEMI then begin
    ignore (next st);
    expect_keyword st "void"
  end;
  expect st RPAREN;
  params

let parse_void_params st =
  let t = peek st in
  match parse_params ~allow_const:false st with
  | [] -> ()
  | _ :: _ -> error_at t "data parameters are not allowed here; use (void)"

(* ------------------------------------------------------------------ *)
(* Rates                                                                *)

let parse_rate st =
  let t = next st in
  match t.token with
  | UNDERSCORE ->
      if (peek st).token = LPAREN then begin
        ignore (next st);
        let w = expect_number st in
        expect st RPAREN;
        if w <= 0.0 then error_at t "passive weight must be positive";
        Ast.Passive w
      end
      else Ast.Passive 1.0
  | IDENT "exp" ->
      expect st LPAREN;
      let r = expect_number st in
      expect st RPAREN;
      if r <= 0.0 then error_at t "exponential rate must be positive";
      Ast.Exp r
  | IDENT "exp_mean" ->
      (* Exponential delay whose mean is a data expression — the rate
         form that can mention behavior parameters and features.
         Positivity is checked at elaboration, when the value is known. *)
      expect st LPAREN;
      let e = parse_expr st in
      expect st RPAREN;
      Ast.Exp_mean e
  | IDENT "inf" ->
      if (peek st).token = LPAREN then begin
        ignore (next st);
        let p = expect_number st in
        if (peek st).token = COMMA then begin
          ignore (next st);
          let w = expect_number st in
          expect st RPAREN;
          Ast.Inf (int_of_float p, w)
        end
        else begin
          expect st RPAREN;
          Ast.Inf (int_of_float p, 1.0)
        end
      end
      else Ast.Inf (1, 1.0)
  | IDENT (("det" | "norm" | "unif" | "erlang" | "weibull") as name) -> (
      expect st LPAREN;
      let rec args acc =
        let acc = expect_number st :: acc in
        if (peek st).token = COMMA then begin
          ignore (next st);
          args acc
        end
        else List.rev acc
      in
      let args = args [] in
      expect st RPAREN;
      match Dpma_dist.Dist.of_args name args with
      | Ok d -> Ast.Gen d
      | Error message -> error_at t message)
  | _ ->
      error_at t
        (Format.asprintf
           "expected a rate (_, exp, inf, det, norm, unif, erlang, weibull), \
            found %a"
           pp_token t.token)

(* ------------------------------------------------------------------ *)
(* Behavior terms                                                       *)

let rec parse_bterm st =
  let t = peek st in
  match t.token with
  | IDENT "choice" ->
      ignore (next st);
      expect st LBRACE;
      let rec alts acc =
        let alt = parse_bterm st in
        if (peek st).token = COMMA then begin
          ignore (next st);
          alts (alt :: acc)
        end
        else List.rev (alt :: acc)
      in
      let branches = alts [] in
      expect st RBRACE;
      Ast.Choice branches
  | IDENT "cond" ->
      ignore (next st);
      expect st LPAREN;
      let e = parse_expr st in
      expect st RPAREN;
      expect st ARROW;
      let body = parse_bterm st in
      Ast.Guard (e, body)
  | IDENT "stop" ->
      ignore (next st);
      Ast.Stop
  | LANGLE ->
      ignore (next st);
      let action = expect_ident st in
      expect st COMMA;
      let rate = parse_rate st in
      expect st RANGLE;
      expect st DOT;
      let cont = parse_bterm st in
      Ast.Prefix (action, rate, cont)
  | IDENT name when not (is_reserved name) ->
      ignore (next st);
      expect st LPAREN;
      let args = parse_arg_list st in
      Ast.Call (name, args)
  | _ ->
      error_at t
        (Format.asprintf "expected a behavior term, found %a" pp_token t.token)

let parse_equation st =
  let name = expect_ident st in
  let params = parse_params ~allow_const:false st in
  expect st EQUALS;
  let body = parse_bterm st in
  { Ast.eq_name = name; eq_params = params; eq_body = body }

let parse_equations st =
  let rec go acc =
    let eq = parse_equation st in
    let acc = eq :: acc in
    if (peek st).token = SEMI then begin
      ignore (next st);
      go acc
    end
    else
      match (peek st).token with
      | IDENT s when not (is_reserved s) -> go acc
      | _ -> List.rev acc
  in
  go []

let parse_interactions st =
  if at_keyword st "void" then begin
    ignore (next st);
    []
  end
  else begin
    let rec groups acc =
      let t = peek st in
      match t.token with
      | IDENT "UNI" ->
          ignore (next st);
          let rec names acc =
            let name = expect_ident st in
            let acc = name :: acc in
            if (peek st).token = SEMI then begin
              ignore (next st);
              (* A trailing semicolon before the next section is tolerated. *)
              match (peek st).token with
              | IDENT s when not (is_reserved s) -> names acc
              | _ -> List.rev acc
            end
            else List.rev acc
          in
          groups (acc @ names [])
      | IDENT ("AND" | "OR") ->
          error_at t "AND/OR multiplicities are not supported (UNI only)"
      | _ -> acc
    in
    groups []
  end

let parse_elem_type st =
  expect_keyword st "ELEM_TYPE";
  let name = expect_ident st in
  let consts = parse_params ~allow_const:true st in
  expect_keyword st "BEHAVIOR";
  let equations = parse_equations st in
  expect_keyword st "INPUT_INTERACTIONS";
  let inputs = parse_interactions st in
  expect_keyword st "OUTPUT_INTERACTIONS";
  let outputs = parse_interactions st in
  { Ast.et_name = name; et_consts = consts; equations; inputs; outputs }

let parse_instances st =
  let rec go acc =
    let name = expect_ident st in
    expect st COLON;
    let type_name = expect_ident st in
    expect st LPAREN;
    let args = parse_arg_list st in
    let acc =
      { Ast.inst_name = name; inst_type = type_name; inst_args = args } :: acc
    in
    if (peek st).token = SEMI then begin
      ignore (next st);
      match (peek st).token with
      | IDENT s when not (is_reserved s) -> go acc
      | _ -> List.rev acc
    end
    else List.rev acc
  in
  go []

let parse_port st =
  let inst = expect_ident st in
  expect st DOT;
  let port = expect_ident st in
  (inst, port)

let parse_attachments st =
  if at_keyword st "void" then begin
    ignore (next st);
    []
  end
  else begin
    let rec go acc =
      expect_keyword st "FROM";
      let from_inst, from_port = parse_port st in
      expect_keyword st "TO";
      let to_inst, to_port = parse_port st in
      let acc = { Ast.from_inst; from_port; to_inst; to_port } :: acc in
      if (peek st).token = SEMI then ignore (next st);
      if at_keyword st "FROM" then go acc else List.rev acc
    in
    go []
  end

(* feature NAME in {v1, v2, ...} — declared between the ARCHI_TYPE
   header and ARCHI_ELEM_TYPES. [feature] and [in] are contextual
   keywords like FROM/TO. *)
let parse_features st =
  let parse_int st =
    let t = peek st in
    let v =
      match t.token with
      | MINUS ->
          ignore (next st);
          -.expect_number st
      | _ -> expect_number st
    in
    if not (Float.is_integer v) then
      error_at t "feature domain values must be integers";
    int_of_float v
  in
  let rec go acc =
    if not (at_keyword st "feature") then List.rev acc
    else begin
      ignore (next st);
      let t_name = peek st in
      let f_name = expect_ident st in
      if List.exists (fun (f : Ast.feature) -> f.f_name = f_name) acc then
        error_at t_name (Printf.sprintf "duplicate feature %s" f_name);
      expect_keyword st "in";
      let t_dom = peek st in
      expect st LBRACE;
      let rec values acc =
        let t_lo = peek st in
        let lo = parse_int st in
        let acc =
          (* a .. b expands to the inclusive integer range. *)
          if (peek st).token = DOT then begin
            ignore (next st);
            expect st DOT;
            let hi = parse_int st in
            if hi < lo then
              error_at t_lo
                (Printf.sprintf "empty range %d .. %d in a feature domain" lo
                   hi);
            let rec push acc v =
              if v > hi then acc else push (v :: acc) (v + 1)
            in
            push acc lo
          end
          else lo :: acc
        in
        if (peek st).token = COMMA then begin
          ignore (next st);
          values acc
        end
        else List.rev acc
      in
      let f_domain = values [] in
      expect st RBRACE;
      if
        List.length (List.sort_uniq Int.compare f_domain)
        <> List.length f_domain
      then
        error_at t_dom
          (Printf.sprintf "duplicate value in the domain of feature %s" f_name);
      go ({ Ast.f_name; f_domain } :: acc)
    end
  in
  go []

let parse src =
  Dpma_obs.Trace.with_span "adl.parse" (fun () ->
  let st = { tokens = Array.of_list (Lexer.tokenize src); pos = 0 } in
  expect_keyword st "ARCHI_TYPE";
  let name = expect_ident st in
  parse_void_params st;
  let features = parse_features st in
  expect_keyword st "ARCHI_ELEM_TYPES";
  let rec elem_types acc =
    if at_keyword st "ELEM_TYPE" then elem_types (parse_elem_type st :: acc)
    else List.rev acc
  in
  let elem_types = elem_types [] in
  expect_keyword st "ARCHI_TOPOLOGY";
  expect_keyword st "ARCHI_ELEM_INSTANCES";
  let instances = parse_instances st in
  expect_keyword st "ARCHI_ATTACHMENTS";
  let attachments = parse_attachments st in
  expect_keyword st "END";
  (match (peek st).token with
  | EOF -> ()
  | _ ->
      error_at (peek st)
        (Format.asprintf "trailing input after END: %a" pp_token (peek st).token));
  let module I = Dpma_obs.Instruments in
  Dpma_obs.Metrics.incr I.adl_parses;
  Dpma_obs.Metrics.add I.adl_elem_types (List.length elem_types);
  Dpma_obs.Metrics.add I.adl_instances (List.length instances);
  Dpma_obs.Metrics.add I.adl_attachments (List.length attachments);
  { Ast.name; features; elem_types; instances; attachments })

let parse_result src =
  match parse src with
  | archi -> Ok archi
  | exception Parse_error { line; col; message } ->
      Error (Printf.sprintf "line %d, column %d: %s" line col message)
  | exception Lexer.Lex_error { line; col; message } ->
      Error (Printf.sprintf "line %d, column %d: %s" line col message)
