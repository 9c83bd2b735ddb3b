module Term = Dpma_pa.Term
module Rate = Dpma_pa.Rate
module Dist = Dpma_dist.Dist

exception Check_error of string

type elaborated = {
  spec : Term.spec;
  general_timings : (string * Dist.t) list;
  instance_actions : (string * string list) list;
  unattached_interactions : string list;
}

let fail fmt = Format.kasprintf (fun s -> raise (Check_error s)) fmt

let find_duplicate names =
  let sorted = List.sort String.compare names in
  let rec scan = function
    | a :: (b :: _ as rest) -> if String.equal a b then Some a else scan rest
    | [ _ ] | [] -> None
  in
  scan sorted

(* ------------------------------------------------------------------ *)
(* Expressions: type checking and evaluation                            *)

let pp_ptype = function Ast.TInt -> "integer" | Ast.TBool -> "boolean"

let rec infer_type ~context tenv (e : Ast.expr) =
  match e with
  | Ast.Int _ -> Ast.TInt
  | Ast.Bool _ -> Ast.TBool
  | Ast.Var x -> (
      match List.assoc_opt x tenv with
      | Some t -> t
      | None -> fail "%s: unbound parameter %s" context x)
  | Ast.Neg e ->
      expect_type ~context tenv e Ast.TInt "operand of unary -";
      Ast.TInt
  | Ast.Not e ->
      expect_type ~context tenv e Ast.TBool "operand of !";
      Ast.TBool
  | Ast.Binop (op, a, b) -> (
      match op with
      | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod ->
          expect_type ~context tenv a Ast.TInt "arithmetic operand";
          expect_type ~context tenv b Ast.TInt "arithmetic operand";
          Ast.TInt
      | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
          expect_type ~context tenv a Ast.TInt "comparison operand";
          expect_type ~context tenv b Ast.TInt "comparison operand";
          Ast.TBool
      | Ast.Eq | Ast.Ne ->
          let ta = infer_type ~context tenv a in
          expect_type ~context tenv b ta "equality operand";
          Ast.TBool
      | Ast.And | Ast.Or ->
          expect_type ~context tenv a Ast.TBool "boolean operand";
          expect_type ~context tenv b Ast.TBool "boolean operand";
          Ast.TBool)

and expect_type ~context tenv e t what =
  let found = infer_type ~context tenv e in
  if found <> t then
    fail "%s: %s has type %s but %s was expected" context what
      (pp_ptype found) (pp_ptype t)

let rec eval ~context env (e : Ast.expr) : Ast.value =
  match e with
  | Ast.Int n -> Ast.VInt n
  | Ast.Bool b -> Ast.VBool b
  | Ast.Var x -> (
      match List.assoc_opt x env with
      | Some v -> v
      | None -> fail "%s: unbound parameter %s" context x)
  | Ast.Neg e -> (
      match eval ~context env e with
      | Ast.VInt n -> Ast.VInt (-n)
      | Ast.VBool _ -> fail "%s: unary - applied to a boolean" context)
  | Ast.Not e -> (
      match eval ~context env e with
      | Ast.VBool b -> Ast.VBool (not b)
      | Ast.VInt _ -> fail "%s: ! applied to an integer" context)
  | Ast.Binop (op, a, b) -> (
      let int_op f =
        match (eval ~context env a, eval ~context env b) with
        | Ast.VInt x, Ast.VInt y -> f x y
        | _ -> fail "%s: arithmetic on non-integers" context
      in
      match op with
      | Ast.Add -> Ast.VInt (int_op ( + ))
      | Ast.Sub -> Ast.VInt (int_op ( - ))
      | Ast.Mul -> Ast.VInt (int_op ( * ))
      | Ast.Div ->
          Ast.VInt
            (int_op (fun x y ->
                 if y = 0 then fail "%s: division by zero" context else x / y))
      | Ast.Mod ->
          Ast.VInt
            (int_op (fun x y ->
                 if y = 0 then fail "%s: modulo by zero" context else x mod y))
      | Ast.Lt -> Ast.VBool (int_op (fun x y -> if x < y then 1 else 0) = 1)
      | Ast.Le -> Ast.VBool (int_op (fun x y -> if x <= y then 1 else 0) = 1)
      | Ast.Gt -> Ast.VBool (int_op (fun x y -> if x > y then 1 else 0) = 1)
      | Ast.Ge -> Ast.VBool (int_op (fun x y -> if x >= y then 1 else 0) = 1)
      | Ast.Eq ->
          Ast.VBool (Ast.value_equal (eval ~context env a) (eval ~context env b))
      | Ast.Ne ->
          Ast.VBool
            (not (Ast.value_equal (eval ~context env a) (eval ~context env b)))
      | Ast.And -> (
          match eval ~context env a with
          | Ast.VBool false -> Ast.VBool false
          | Ast.VBool true -> eval ~context env b
          | Ast.VInt _ -> fail "%s: && on integers" context)
      | Ast.Or -> (
          match eval ~context env a with
          | Ast.VBool true -> Ast.VBool true
          | Ast.VBool false -> eval ~context env b
          | Ast.VInt _ -> fail "%s: || on integers" context))

(* ------------------------------------------------------------------ *)
(* Syntactic helpers                                                    *)

let rec bterm_actions = function
  | Ast.Stop -> []
  | Ast.Prefix (a, _, k) -> a :: bterm_actions k
  | Ast.Choice ts -> List.concat_map bterm_actions ts
  | Ast.Call _ -> []
  | Ast.Guard (_, t) -> bterm_actions t

let rec bterm_calls = function
  | Ast.Stop -> []
  | Ast.Prefix (_, _, k) -> bterm_calls k
  | Ast.Choice ts -> List.concat_map bterm_calls ts
  | Ast.Call (name, args) -> [ (name, args) ]
  | Ast.Guard (_, t) -> bterm_calls t

let rec bterm_guards = function
  | Ast.Stop -> []
  | Ast.Prefix (_, _, k) -> bterm_guards k
  | Ast.Choice ts -> List.concat_map bterm_guards ts
  | Ast.Call _ -> []
  | Ast.Guard (e, t) -> e :: bterm_guards t

let rec bterm_rate_exprs = function
  | Ast.Stop -> []
  | Ast.Prefix (_, r, k) -> r :: bterm_rate_exprs k
  | Ast.Choice ts -> List.concat_map bterm_rate_exprs ts
  | Ast.Call _ -> []
  | Ast.Guard (_, t) -> bterm_rate_exprs t

let elem_type_actions (et : Ast.elem_type) =
  List.concat_map (fun (eq : Ast.equation) -> bterm_actions eq.eq_body) et.equations
  |> List.sort_uniq String.compare

let lookup_type (archi : Ast.archi) name =
  match
    List.find_opt (fun (et : Ast.elem_type) -> String.equal et.et_name name)
      archi.elem_types
  with
  | Some et -> et
  | None -> fail "undefined element type %s" name

let lookup_instance (archi : Ast.archi) name =
  match
    List.find_opt (fun (i : Ast.instance) -> String.equal i.inst_name name)
      archi.instances
  with
  | Some i -> i
  | None -> fail "undefined instance %s" name

let lookup_equation (et : Ast.elem_type) name =
  List.find_opt (fun (e : Ast.equation) -> String.equal e.eq_name name)
    et.equations

(* ------------------------------------------------------------------ *)
(* Static checks                                                        *)

let check_elem_type ~feature_tenv (et : Ast.elem_type) =
  if et.equations = [] then fail "element type %s has no behavior equation" et.et_name;
  (match find_duplicate (List.map (fun (e : Ast.equation) -> e.eq_name) et.equations) with
  | Some d -> fail "element type %s: duplicate equation %s" et.et_name d
  | None -> ());
  (match
     find_duplicate (List.map (fun (p : Ast.param) -> p.Ast.p_name) et.et_consts)
   with
  | Some d -> fail "element type %s: duplicate const parameter %s" et.et_name d
  | None -> ());
  let const_tenv =
    List.map (fun (p : Ast.param) -> (p.Ast.p_name, p.Ast.p_type)) et.et_consts
  in
  (* Features are globally visible, so local names may not shadow them —
     shadowing would silently change which value a rate or guard sees. *)
  let check_no_feature_clash what names =
    List.iter
      (fun n ->
        if List.mem_assoc n feature_tenv then
          fail "element type %s: %s %s shadows a feature" et.et_name what n)
      names
  in
  check_no_feature_clash "const parameter"
    (List.map (fun (p : Ast.param) -> p.Ast.p_name) et.et_consts);
  let actions = elem_type_actions et in
  if List.mem Term.tau actions then
    fail "element type %s uses the reserved action name tau" et.et_name;
  (match et.equations with
  | first :: _ when first.Ast.eq_params <> [] ->
      fail
        "element type %s: the initial behavior %s may not take data \
         parameters (add a parameterless starter equation)"
        et.et_name first.Ast.eq_name
  | _ -> ());
  List.iter
    (fun (e : Ast.equation) ->
      let context =
        Printf.sprintf "element type %s, equation %s" et.et_name e.Ast.eq_name
      in
      (match
         find_duplicate
           (List.map (fun (p : Ast.param) -> p.Ast.p_name)
              (et.et_consts @ e.Ast.eq_params))
       with
      | Some d -> fail "%s: duplicate parameter %s" context d
      | None -> ());
      check_no_feature_clash "data parameter"
        (List.map (fun (p : Ast.param) -> p.Ast.p_name) e.Ast.eq_params);
      let tenv =
        const_tenv
        @ List.map (fun (p : Ast.param) -> (p.Ast.p_name, p.Ast.p_type))
            e.Ast.eq_params
        @ feature_tenv
      in
      (* Guards must be boolean. *)
      List.iter
        (fun g -> expect_type ~context tenv g Ast.TBool "guard condition")
        (bterm_guards e.Ast.eq_body);
      (* exp_mean arguments must be integers. *)
      List.iter
        (function
          | Ast.Exp_mean e ->
              expect_type ~context tenv e Ast.TInt "exp_mean argument"
          | Ast.Passive _ | Ast.Exp _ | Ast.Inf _ | Ast.Gen _ -> ())
        (bterm_rate_exprs e.Ast.eq_body);
      (* Calls must match an equation's arity and types. *)
      List.iter
        (fun (callee, args) ->
          match lookup_equation et callee with
          | None ->
              fail "%s: call to undefined behavior %s" context callee
          | Some target ->
              if List.length args <> List.length target.Ast.eq_params then
                fail "%s: %s expects %d argument(s), got %d" context callee
                  (List.length target.Ast.eq_params)
                  (List.length args);
              List.iter2
                (fun arg (p : Ast.param) ->
                  expect_type ~context tenv arg p.Ast.p_type
                    (Printf.sprintf "argument %s of %s" p.Ast.p_name callee))
                args target.Ast.eq_params)
        (bterm_calls e.Ast.eq_body))
    et.equations;
  let declared = et.inputs @ et.outputs in
  (match find_duplicate declared with
  | Some d ->
      fail "element type %s: interaction %s declared more than once" et.et_name d
  | None -> ());
  List.iter
    (fun port ->
      if not (List.mem port actions) then
        fail
          "element type %s: declared interaction %s does not occur in the \
           behavior"
          et.et_name port)
    declared

let rec expr_vars = function
  | Ast.Int _ | Ast.Bool _ -> []
  | Ast.Var x -> [ x ]
  | Ast.Neg e | Ast.Not e -> expr_vars e
  | Ast.Binop (_, a, b) -> expr_vars a @ expr_vars b

let feature_tenv (archi : Ast.archi) =
  List.map (fun (f : Ast.feature) -> (f.Ast.f_name, Ast.TInt)) archi.features

let check (archi : Ast.archi) =
  (match
     find_duplicate
       (List.map (fun (f : Ast.feature) -> f.Ast.f_name) archi.features)
   with
  | Some d -> fail "duplicate feature %s" d
  | None -> ());
  List.iter
    (fun (f : Ast.feature) ->
      if f.Ast.f_domain = [] then
        fail "feature %s has an empty domain" f.Ast.f_name;
      if
        List.length (List.sort_uniq Int.compare f.Ast.f_domain)
        <> List.length f.Ast.f_domain
      then fail "feature %s: duplicate value in domain" f.Ast.f_name)
    archi.features;
  (match
     find_duplicate (List.map (fun (et : Ast.elem_type) -> et.et_name) archi.elem_types)
   with
  | Some d -> fail "duplicate element type %s" d
  | None -> ());
  (match
     find_duplicate (List.map (fun (i : Ast.instance) -> i.inst_name) archi.instances)
   with
  | Some d -> fail "duplicate instance %s" d
  | None -> ());
  let feature_tenv = feature_tenv archi in
  List.iter (check_elem_type ~feature_tenv) archi.elem_types;
  List.iter
    (fun (i : Ast.instance) ->
      let et = lookup_type archi i.inst_type in
      let context = Printf.sprintf "instance %s" i.inst_name in
      if List.length i.inst_args <> List.length et.et_consts then
        fail "%s: %s expects %d const argument(s), got %d" context i.inst_type
          (List.length et.et_consts)
          (List.length i.inst_args);
      List.iter2
        (fun arg (p : Ast.param) ->
          (* Closed, except that feature names are allowed: a family member
             substitutes its binding before evaluation. *)
          (match
             List.filter
               (fun x -> not (List.mem_assoc x feature_tenv))
               (expr_vars arg)
           with
          | [] -> ()
          | x :: _ ->
              fail "%s: const argument for %s must be closed (uses %s)" context
                p.Ast.p_name x);
          expect_type ~context feature_tenv arg p.Ast.p_type
            (Printf.sprintf "const argument %s" p.Ast.p_name))
        i.inst_args et.et_consts)
    archi.instances;
  (* Attachments: output port -> input port, each port attached once. *)
  let seen_ports = Hashtbl.create 16 in
  List.iter
    (fun (a : Ast.attachment) ->
      let from_i = lookup_instance archi a.from_inst in
      let to_i = lookup_instance archi a.to_inst in
      let from_t = lookup_type archi from_i.inst_type in
      let to_t = lookup_type archi to_i.inst_type in
      if not (List.mem a.from_port from_t.outputs) then
        fail "attachment %s: %s.%s is not a declared output interaction"
          (Ast.channel_name a) a.from_inst a.from_port;
      if not (List.mem a.to_port to_t.inputs) then
        fail "attachment %s: %s.%s is not a declared input interaction"
          (Ast.channel_name a) a.to_inst a.to_port;
      if String.equal a.from_inst a.to_inst then
        fail "attachment %s connects an instance to itself" (Ast.channel_name a);
      List.iter
        (fun port ->
          if Hashtbl.mem seen_ports port then
            fail "UNI port %s.%s attached more than once" (fst port) (snd port);
          Hashtbl.add seen_ports port ())
        [ (a.from_inst, a.from_port); (a.to_inst, a.to_port) ])
    archi.attachments

(* ------------------------------------------------------------------ *)
(* Elaboration                                                          *)

(* Final name of an action occurrence of an instance: the fused channel
   name when the port is attached, the qualified name otherwise. *)
let final_name (archi : Ast.archi) inst action =
  let attached =
    List.find_opt
      (fun (a : Ast.attachment) ->
        (String.equal a.from_inst inst && String.equal a.from_port action)
        || (String.equal a.to_inst inst && String.equal a.to_port action))
      archi.attachments
  in
  match attached with
  | Some a -> Ast.channel_name a
  | None -> Ast.qualified inst action

let constant_name inst eq args =
  match args with
  | [] -> inst ^ "." ^ eq
  | _ ->
      Format.asprintf "%s.%s(%a)" inst eq
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
           Ast.pp_value)
        args

let rate_of_expr ~context ~env = function
  | Ast.Passive w -> Rate.passive ~weight:w ()
  | Ast.Exp r -> Rate.exp r
  | Ast.Exp_mean e -> (
      match eval ~context env e with
      | Ast.VInt n ->
          if n <= 0 then
            fail "%s: exp_mean argument evaluates to %d (must be positive)"
              context n;
          Rate.exp_mean (float_of_int n)
      | Ast.VBool _ -> fail "%s: exp_mean argument is not an integer" context)
  | Ast.Inf (p, w) -> Rate.imm ~prio:p ~weight:w ()
  | Ast.Gen d ->
      let m = Dist.mean d in
      if m <= 0.0 then
        fail "%s: general distribution %s has non-positive mean (use inf)"
          context (Dist.to_string d);
      Rate.exp_mean m

let max_expansions_default = 200_000

(* Features an instance's translation can read: those in its const
   arguments and in its element type's guards, rates and call arguments.
   [check] forbids local names that shadow a feature, and a superset
   would do anyway: equal values here give an equal translation. *)
let instance_features (archi : Ast.archi) (i : Ast.instance) =
  let et = lookup_type archi i.inst_type in
  let rate_args =
    List.filter_map (function
      | Ast.Exp_mean e -> Some e
      | Ast.Passive _ | Ast.Exp _ | Ast.Inf _ | Ast.Gen _ -> None)
  in
  List.concat_map
    (fun (eq : Ast.equation) ->
      bterm_guards eq.Ast.eq_body
      @ rate_args (bterm_rate_exprs eq.Ast.eq_body)
      @ List.concat_map snd (bterm_calls eq.Ast.eq_body))
    et.equations
  |> List.append i.inst_args
  |> List.concat_map expr_vars
  |> List.filter (fun x ->
         List.exists
           (fun (f : Ast.feature) -> String.equal f.Ast.f_name x)
           archi.features)
  |> List.sort_uniq String.compare

(* One instance's translation, replayed into every member that binds its
   features alike. *)
type translation = {
  tr_defs : (string * Term.t) list;  (* the constants it adds, newest first *)
  tr_timings : (int * string * Dist.t * string) list;
      (* each general distribution met, in order: expansions made before
         it, final action name, distribution, error context *)
  tr_expansions : int;
  tr_init : (Term.t, exn) result;
      (* the instance's initial constant, or the error that stopped the
         translation; one stopped by the expansion budget has
         [tr_expansions] past it *)
}

let overflow ~max_expansions inst =
  fail
    "instance %s: more than %d expanded behaviors — unbounded data \
     recursion? (raise max_expansions if intended)"
    inst max_expansions

(* Expand one instance: the constants are (equation, argument values)
   pairs reachable from the initial equation. [budget] is what the member
   has left of [max_expansions]. *)
let translate_instance ~max_expansions ~budget ~feature_env
    (archi : Ast.archi) (i : Ast.instance) =
  let et = lookup_type archi i.inst_type in
  let inst = i.inst_name in
  let defs = ref [] and timings = ref [] and expansions = ref 0 in
  let init =
    try
      let const_env =
        List.map2
          (fun (p : Ast.param) arg ->
            ( p.Ast.p_name,
              eval ~context:(Printf.sprintf "instance %s" inst) feature_env arg
            ))
          et.et_consts i.inst_args
        @ feature_env
      in
      let expanded : (string * Ast.value list, unit) Hashtbl.t =
        Hashtbl.create 64
      in
      let queue = Queue.create () in
      let enqueue eq_name args =
        if not (Hashtbl.mem expanded (eq_name, args)) then begin
          Hashtbl.add expanded (eq_name, args) ();
          incr expansions;
          if !expansions > budget then overflow ~max_expansions inst;
          Queue.add (eq_name, args) queue
        end
      in
      let rec translate_bterm ~context env = function
        | Ast.Stop -> Term.stop
        | Ast.Prefix (a, rexpr, k) ->
            let name = final_name archi inst a in
            let rate = rate_of_expr ~context ~env rexpr in
            (match rexpr with
            | Ast.Gen d ->
                timings := (!expansions, name, d, context) :: !timings
            | Ast.Passive _ | Ast.Exp _ | Ast.Exp_mean _ | Ast.Inf _ -> ());
            Term.prefix name rate (translate_bterm ~context env k)
        | Ast.Choice ts ->
            Term.choice (List.map (translate_bterm ~context env) ts)
        | Ast.Guard (e, t) -> (
            (* Guards are resolved at expansion time: parameters are
               static per expanded constant. A false guard contributes
               nothing (the smart choice constructor drops Stop
               summands). *)
            match eval ~context env e with
            | Ast.VBool true -> translate_bterm ~context env t
            | Ast.VBool false -> Term.stop
            | Ast.VInt _ -> fail "%s: guard is not boolean" context)
        | Ast.Call (callee, args) ->
            let values = List.map (eval ~context env) args in
            enqueue callee values;
            Term.call (constant_name inst callee values)
      in
      let first = List.hd et.equations in
      enqueue first.Ast.eq_name [];
      while not (Queue.is_empty queue) do
        let eq_name, args = Queue.pop queue in
        let eq = Option.get (lookup_equation et eq_name) in
        let context = Printf.sprintf "instance %s, equation %s" inst eq_name in
        let env =
          const_env
          @ List.map2
              (fun (p : Ast.param) v -> (p.Ast.p_name, v))
              eq.Ast.eq_params args
        in
        let body = translate_bterm ~context env eq.Ast.eq_body in
        defs := (constant_name inst eq_name args, body) :: !defs
      done;
      Ok (Term.call (constant_name inst first.Ast.eq_name []))
    with (Check_error _ | Invalid_argument _) as e -> Error e
  in
  { tr_defs = !defs; tr_timings = List.rev !timings;
    tr_expansions = !expansions; tr_init = init }

(* What the members of one family share: the per-instance feature
   dependencies and composition channels, the translation memo, and the
   parts of the result no feature reaches. *)
type plan = {
  archi : Ast.archi;
  max_expansions : int;
  instances : (Ast.instance * string list * string list) list;
      (* instance, the features it reads, the channels it shares with
         the instances before it *)
  memo : (string * int list, translation) Hashtbl.t;
  actions : (string * string list) list;
  unattached : string list;
}

let plan ~max_expansions (archi : Ast.archi) =
  if archi.instances = [] then
    fail "architecture %s has no instances" archi.name;
  (* The synchronization set when adding instance [i] is the set of
     channels shared with earlier instances — channel names are unique per
     attachment, so this wires each attachment exactly once. *)
  let channels_with earlier (i : Ast.instance) =
    archi.attachments
    |> List.filter (fun (a : Ast.attachment) ->
           (String.equal a.from_inst i.inst_name
           && List.exists
                (fun (e : Ast.instance) -> String.equal e.inst_name a.to_inst)
                earlier)
           || (String.equal a.to_inst i.inst_name
              && List.exists
                   (fun (e : Ast.instance) ->
                     String.equal e.inst_name a.from_inst)
                   earlier))
    |> List.map Ast.channel_name
  in
  let instances, _ =
    List.fold_left
      (fun (acc, earlier) (i : Ast.instance) ->
        ( (i, instance_features archi i, channels_with earlier i) :: acc,
          i :: earlier ))
      ([], []) archi.instances
  in
  let instance_actions =
    List.map
      (fun (i : Ast.instance) ->
        let et = lookup_type archi i.inst_type in
        let finals =
          elem_type_actions et |> List.map (final_name archi i.inst_name)
        in
        (i.inst_name, List.sort_uniq String.compare finals))
      archi.instances
  in
  let attached_ports =
    List.concat_map
      (fun (a : Ast.attachment) ->
        [ (a.from_inst, a.from_port); (a.to_inst, a.to_port) ])
      archi.attachments
  in
  let unattached_interactions =
    List.concat_map
      (fun (i : Ast.instance) ->
        let et = lookup_type archi i.inst_type in
        et.inputs @ et.outputs
        |> List.filter (fun port ->
               not (List.mem (i.inst_name, port) attached_ports))
        |> List.map (Ast.qualified i.inst_name))
      archi.instances
  in
  { archi; max_expansions; instances = List.rev instances;
    memo = Hashtbl.create 64; actions = instance_actions;
    unattached = unattached_interactions }

(* One family member: [bindings] gives each feature its value. [check] has
   already run. The caller opens the [adl.elaborate] span: one per model,
   or one over every member of a family. *)
let elaborate_bound p ~bindings =
  let max_expansions = p.max_expansions in
  let feature_env =
    List.map (fun (name, v) -> (name, Ast.VInt v)) bindings
  in
  let timings : (string, Dist.t) Hashtbl.t = Hashtbl.create 16 in
  let record_timing name dist context =
    match Hashtbl.find_opt timings name with
    | None -> Hashtbl.add timings name dist
    | Some existing ->
        if not (Dist.equal existing dist) then
          fail
            "%s: action %s carries two different general distributions (%s \
             and %s)"
            context name (Dist.to_string existing) (Dist.to_string dist)
  in
  let defs = ref [] in
  let expansions = ref 0 in
  (* A memoized translation replays its timings and expansions in their
     original order, so a conflict or an exhausted budget fails at the
     same point, with the same message, as a fresh translation would. *)
  let instance_init ((i : Ast.instance), features, _) =
    let key =
      (i.inst_name, List.map (fun f -> List.assoc f bindings) features)
    in
    let tr =
      match Hashtbl.find_opt p.memo key with
      | Some tr -> tr
      | None ->
          let tr =
            translate_instance ~max_expansions
              ~budget:(max_expansions - !expansions) ~feature_env p.archi i
          in
          if Result.is_ok tr.tr_init then Hashtbl.add p.memo key tr;
          tr
    in
    List.iter
      (fun (before, name, dist, context) ->
        if !expansions + before > max_expansions then
          overflow ~max_expansions i.inst_name;
        record_timing name dist context)
      tr.tr_timings;
    expansions := !expansions + tr.tr_expansions;
    if !expansions > max_expansions then overflow ~max_expansions i.inst_name;
    defs := tr.tr_defs @ !defs;
    match tr.tr_init with Ok t -> t | Error e -> raise e
  in
  let initial_terms =
    List.map (fun ((_, _, sync) as i) -> (sync, instance_init i)) p.instances
  in
  (* Compose instances left to right, synchronizing each on the channels
     it shares with the ones before it. *)
  let init =
    match initial_terms with
    | [] -> assert false (* [plan] rejects an empty architecture *)
    | (_, first) :: rest ->
        List.fold_left
          (fun acc (sync, t) -> Term.par_names acc sync t)
          first rest
  in
  let spec = Term.spec ~defs:!defs ~init in
  Dpma_obs.Metrics.add Dpma_obs.Instruments.adl_constants (List.length !defs);
  {
    spec;
    general_timings =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) timings []
      |> List.sort compare;
    instance_actions = p.actions;
    unattached_interactions = p.unattached;
  }

let first_bindings (archi : Ast.archi) =
  List.map
    (fun (f : Ast.feature) -> (f.Ast.f_name, List.hd f.Ast.f_domain))
    archi.features

let elaborate ?(max_expansions = max_expansions_default) (archi : Ast.archi) =
  check archi;
  Dpma_obs.Trace.with_span "adl.elaborate" (fun () ->
      elaborate_bound (plan ~max_expansions archi)
        ~bindings:(first_bindings archi))

type family = {
  features : (string * int list) list;
  bindings : (string * int) list array;
  members : elaborated array;
}

let max_members = 4096

let elaborate_family ?(max_expansions = max_expansions_default) ?sweep
    (archi : Ast.archi) =
  check archi;
  if archi.features = [] then
    fail "architecture %s declares no features" archi.name;
  (match sweep with
  | Some names ->
      List.iter
        (fun s ->
          if
            not
              (List.exists
                 (fun (f : Ast.feature) -> String.equal f.Ast.f_name s)
                 archi.features)
          then fail "architecture %s declares no feature %s" archi.name s)
        names
  | None -> ());
  let domains =
    List.map
      (fun (f : Ast.feature) ->
        match sweep with
        | Some names when not (List.exists (String.equal f.Ast.f_name) names)
          ->
            (f.Ast.f_name, [ List.hd f.Ast.f_domain ])
        | Some _ | None -> (f.Ast.f_name, f.Ast.f_domain))
      archi.features
  in
  (* Cartesian product in declaration order, last feature varying
     fastest; each partial binding is built reversed and flipped at the
     end. *)
  let bindings =
    List.fold_left
      (fun acc (name, dom) ->
        List.concat_map
          (fun b -> List.map (fun v -> (name, v) :: b) dom)
          acc)
      [ [] ] domains
    |> List.map List.rev
  in
  if List.length bindings > max_members then
    fail "architecture %s: family has %d members (more than %d)" archi.name
      (List.length bindings) max_members;
  let bindings = Array.of_list bindings in
  let members =
    let module Trace = Dpma_obs.Trace in
    Trace.with_span "adl.elaborate"
      ~attrs:[ ("members", Trace.Int (Array.length bindings)) ]
      (fun () ->
        let p = plan ~max_expansions archi in
        Array.map (fun b -> elaborate_bound p ~bindings:b) bindings)
  in
  {
    features =
      List.map
        (fun (f : Ast.feature) -> (f.Ast.f_name, f.Ast.f_domain))
        archi.features;
    bindings;
    members;
  }

let actions_of_instance elaborated inst =
  match List.assoc_opt inst elaborated.instance_actions with
  | Some actions -> actions
  | None -> fail "unknown instance %s" inst
