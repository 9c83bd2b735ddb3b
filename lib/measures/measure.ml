module Ctmc = Dpma_ctmc.Ctmc
module Lts = Dpma_lts.Lts
module Sim = Dpma_sim.Sim
module Stats = Dpma_util.Stats

type reward_kind = State_reward | Trans_reward

type clause = { action : string; kind : reward_kind; reward : float }

type t = { name : string; clauses : clause list; divisor : clause list }

let measure name clauses =
  if name = "" then invalid_arg "Measure.measure: empty name";
  if clauses = [] then invalid_arg "Measure.measure: no clauses";
  { name; clauses; divisor = [] }

let quotient_measure name clauses divisor =
  if name = "" then invalid_arg "Measure.quotient_measure: empty name";
  if clauses = [] || divisor = [] then
    invalid_arg "Measure.quotient_measure: empty clause list";
  { name; clauses; divisor }

let state_clause action reward = { action; kind = State_reward; reward }
let trans_clause action reward = { action; kind = Trans_reward; reward }

(* ------------------------------------------------------------------ *)
(* Concrete syntax                                                     *)

exception Parse_error of string

type token =
  | Word of string
  | Num of float
  | Lparen
  | Rparen
  | Arrow
  | Semi
  | End

let tokenize src =
  let n = String.length src in
  let pos = ref 0 in
  let tokens = ref [] in
  let is_word_char c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_' || c = '.' || c = '#'
  in
  let is_digit c = (c >= '0' && c <= '9') || c = '-' in
  while !pos < n do
    let c = src.[!pos] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr pos
    else if c = '%' then
      while !pos < n && src.[!pos] <> '\n' do
        incr pos
      done
    else if c = '-' && !pos + 1 < n && src.[!pos + 1] = '>' then begin
      tokens := Arrow :: !tokens;
      pos := !pos + 2
    end
    else if c = '(' then begin
      tokens := Lparen :: !tokens;
      incr pos
    end
    else if c = ')' then begin
      tokens := Rparen :: !tokens;
      incr pos
    end
    else if c = ';' then begin
      tokens := Semi :: !tokens;
      incr pos
    end
    else if is_digit c then begin
      let start = !pos in
      incr pos;
      while
        !pos < n
        && (let d = src.[!pos] in
            (d >= '0' && d <= '9') || d = '.' || d = 'e' || d = 'E' || d = '+'
            || d = '-')
      do
        incr pos
      done;
      let s = String.sub src start (!pos - start) in
      match float_of_string_opt s with
      | Some f -> tokens := Num f :: !tokens
      | None -> raise (Parse_error (Printf.sprintf "malformed number %S" s))
    end
    else if is_word_char c then begin
      let start = !pos in
      while !pos < n && is_word_char src.[!pos] do
        incr pos
      done;
      tokens := Word (String.sub src start (!pos - start)) :: !tokens
    end
    else
      raise (Parse_error (Printf.sprintf "unexpected character %C" c))
  done;
  List.rev (End :: !tokens)

let parse src =
  let tokens = ref (tokenize src) in
  let peek () = match !tokens with t :: _ -> t | [] -> End in
  let advance () = match !tokens with _ :: rest -> tokens := rest | [] -> () in
  let expect t what =
    if peek () = t then advance ()
    else raise (Parse_error (Printf.sprintf "expected %s" what))
  in
  let expect_word w =
    match peek () with
    | Word s when String.equal s w -> advance ()
    | _ -> raise (Parse_error (Printf.sprintf "expected %s" w))
  in
  let word what =
    match peek () with
    | Word s ->
        advance ();
        s
    | _ -> raise (Parse_error (Printf.sprintf "expected %s" what))
  in
  let number () =
    match peek () with
    | Num f ->
        advance ();
        f
    | _ -> raise (Parse_error "expected a number")
  in
  let parse_clause () =
    expect_word "ENABLED";
    expect Lparen "'('";
    let action = word "an action name" in
    expect Rparen "')'";
    expect Arrow "'->'";
    let kind =
      match word "STATE_REWARD or TRANS_REWARD" with
      | "STATE_REWARD" -> State_reward
      | "TRANS_REWARD" -> Trans_reward
      | other ->
          raise
            (Parse_error
               (Printf.sprintf "expected STATE_REWARD or TRANS_REWARD, got %s"
                  other))
    in
    expect Lparen "'('";
    let reward = number () in
    expect Rparen "')'";
    { action; kind; reward }
  in
  let parse_measure () =
    expect_word "MEASURE";
    let name = word "a measure name" in
    expect_word "IS";
    (* Clauses are juxtaposed; an optional DIVIDED_BY starts the divisor
       clause list; a semicolon ends the measure. *)
    let rec clauses acc =
      let c = parse_clause () in
      let acc = c :: acc in
      match peek () with
      | Word "ENABLED" -> clauses acc
      | _ -> List.rev acc
    in
    let numerator = clauses [] in
    let divisor =
      match peek () with
      | Word "DIVIDED_BY" ->
          advance ();
          clauses []
      | _ -> []
    in
    (match peek () with
    | Semi -> advance ()
    | _ -> ());
    { name; clauses = numerator; divisor }
  in
  let rec measures acc =
    match peek () with
    | End -> List.rev acc
    | Word "MEASURE" -> measures (parse_measure () :: acc)
    | _ -> raise (Parse_error "expected MEASURE")
  in
  let result = measures [] in
  if result = [] then raise (Parse_error "no MEASURE declaration found");
  result

let parse_result src =
  match parse src with
  | ms -> Ok ms
  | exception Parse_error msg -> Error msg

let pp_clause ppf c =
  let kind =
    match c.kind with
    | State_reward -> "STATE_REWARD"
    | Trans_reward -> "TRANS_REWARD"
  in
  Format.fprintf ppf "ENABLED(%s) -> %s(%s)" c.action kind
    (Dpma_util.Floatfmt.repr c.reward)

let pp ppf m =
  Format.fprintf ppf "@[<v 2>MEASURE %s IS@," m.name;
  List.iter (fun c -> Format.fprintf ppf "%a@," pp_clause c) m.clauses;
  (match m.divisor with
  | [] -> ()
  | ds ->
      Format.fprintf ppf "DIVIDED_BY@,";
      List.iter (fun c -> Format.fprintf ppf "%a@," pp_clause c) ds);
  Format.fprintf ppf ";@]"

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)

let eval_clauses ctmc pi clauses =
  List.fold_left
    (fun acc c ->
      match c.kind with
      | State_reward ->
          acc +. (c.reward *. Ctmc.probability_enabled ctmc pi c.action)
      | Trans_reward -> acc +. (c.reward *. Ctmc.throughput ctmc pi c.action))
    0.0 clauses

let eval_ctmc ctmc pi m =
  let numerator = eval_clauses ctmc pi m.clauses in
  match m.divisor with
  | [] -> numerator
  | ds ->
      let d = eval_clauses ctmc pi ds in
      if d = 0.0 then nan else numerator /. d

type side_layout = { state_slot : int option; trans_slot : int option }

type layout = {
  measure_name : string;
  numerator : side_layout;
  denominator : side_layout option;
}

type compiled = { estimand_list : Sim.estimand list; layouts : layout list }

(* Tabulate the state reward once per state up front: the simulator
   evaluates this on every integration step, and scanning the clause list
   (with an edge scan per clause) per step dominated long runs. Each
   clause's label is resolved once; tau and names no model uses resolve
   to -1, which no edge carries. *)
let state_estimand lts cs =
  let labels =
    List.map
      (fun c ->
        match Dpma_pa.Label.find c.action with
        | Some l when not (Lts.is_tau l) -> l
        | Some _ | None -> -1)
      cs
  in
  let reward =
    Array.init lts.Lts.num_states (fun s ->
        List.fold_left2
          (fun acc c l -> if Lts.enables_label lts s l then acc +. c.reward else acc)
          0.0 cs labels)
  in
  Sim.Time_average (Array.get reward)

let rate_estimand cs =
  Sim.Rate_of
    (fun a ->
      List.fold_left
        (fun acc c -> if String.equal c.action a then acc +. c.reward else acc)
        0.0 cs)

let compile_sim lts measures =
  (* Equal clause lists share one estimand: a quotient measure whose sides
     repeat other measures (rpc's energy per request) integrates and
     counts nothing twice. *)
  let estimands = ref [] and slots = ref [] in
  let slot_of cs make =
    match List.assoc_opt cs !slots with
    | Some slot -> slot
    | None ->
        let slot = List.length !slots in
        estimands := make cs :: !estimands;
        slots := (cs, slot) :: !slots;
        slot
  in
  let compile_side clauses =
    let side kind make =
      match List.filter (fun c -> c.kind = kind) clauses with
      | [] -> None
      | cs -> Some (slot_of cs make)
    in
    {
      state_slot = side State_reward (state_estimand lts);
      trans_slot = side Trans_reward rate_estimand;
    }
  in
  let layouts =
    List.map
      (fun m ->
        let numerator = compile_side m.clauses in
        let denominator =
          match m.divisor with [] -> None | ds -> Some (compile_side ds)
        in
        { measure_name = m.name; numerator; denominator })
      measures
  in
  { estimand_list = List.rev !estimands; layouts }

let estimands c = c.estimand_list

let side_summary (summaries : Stats.summary array) side =
  let get = function None -> None | Some i -> Some summaries.(i) in
  match (get side.state_slot, get side.trans_slot) with
  | Some s, None | None, Some s -> s
  | Some a, Some b ->
      {
        Stats.n = min a.Stats.n b.Stats.n;
        mean = a.Stats.mean +. b.Stats.mean;
        stddev = a.Stats.stddev +. b.Stats.stddev;
        half_width = a.Stats.half_width +. b.Stats.half_width;
        confidence = a.Stats.confidence;
      }
  | None, None -> assert false

let values c (summaries : Stats.summary array) =
  List.map
    (fun l ->
      let num = side_summary summaries l.numerator in
      let combined =
        match l.denominator with
        | None -> num
        | Some d ->
            let den = side_summary summaries d in
            if den.Stats.mean = 0.0 then
              { num with Stats.mean = nan; half_width = infinity }
            else
              let q = num.Stats.mean /. den.Stats.mean in
              (* First-order error propagation for the quotient of two
                 estimated means (conservative). *)
              let rel a =
                if a.Stats.mean = 0.0 then 0.0
                else a.Stats.half_width /. abs_float a.Stats.mean
              in
              {
                Stats.n = min num.Stats.n den.Stats.n;
                mean = q;
                stddev = abs_float q *. (rel num +. rel den);
                half_width = abs_float q *. (rel num +. rel den);
                confidence = num.Stats.confidence;
              }
      in
      (l.measure_name, combined))
    c.layouts
