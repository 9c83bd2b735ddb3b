(** Abstract syntax of the Æmilia-compatible architectural description
    language.

    The concrete syntax is the fragment printed in the paper (Sect. 2.3) —
    an [ARCHI_TYPE] declares architectural element types, each with a
    [BEHAVIOR] given by process equations over action prefixes and choices
    plus declared input/output interactions, and a topology of instances
    wired by attachments — extended with the data-parameter features of
    full Æmilia:

    - element types may declare [const] parameters, instantiated per
      instance ([ELEM_TYPE Buffer_Type(const integer size)] /
      [B : Buffer_Type(10)]);
    - behavior equations may carry typed data parameters
      ([Buffer(integer h; void) = ...]) and invoke each other with
      argument expressions ([Buffer(h+1)]);
    - alternatives may be guarded: [cond(h < size) -> <put, _> . ...]. *)

(** {2 Data expressions} *)

type binop =
  | Add | Sub | Mul | Div | Mod
  | Lt | Le | Gt | Ge | Eq | Ne
  | And | Or

type expr =
  | Int of int
  | Bool of bool
  | Var of string
  | Neg of expr
  | Not of expr
  | Binop of binop * expr * expr

(** {2 Rates} *)

type rate_expr =
  | Passive of float  (** [_] or [_(w)]: reactive, with weight *)
  | Exp of float  (** [exp(r)]: exponential with rate [r] *)
  | Exp_mean of expr
      (** [exp_mean(e)]: exponential whose {e mean} is the value of the
          integer expression [e] — the form that lets a delay depend on a
          data parameter or a {!feature} (a DPM timeout, an awake
          period). Evaluated at elaboration; the value must be
          positive. *)
  | Inf of int * float  (** [inf(p,w)]: immediate with priority and weight *)
  | Gen of Dpma_dist.Dist.t
      (** [det(c)], [norm(m,sd)], [unif(a,b)], [erlang(k,m)],
          [weibull(k,l)]: generally distributed duration. Elaboration keeps
          the exponential with the same mean for the Markovian view and
          records the distribution for the simulator. *)

type value = VInt of int | VBool of bool

val pp_value : Format.formatter -> value -> unit
val value_equal : value -> value -> bool

type ptype = TInt | TBool

type param = { p_name : string; p_type : ptype }

(** {2 Behaviors} *)

type bterm =
  | Stop
  | Prefix of string * rate_expr * bterm
  | Choice of bterm list
  | Call of string * expr list
  | Guard of expr * bterm  (** [cond(e) -> t] *)

type equation = { eq_name : string; eq_params : param list; eq_body : bterm }

type elem_type = {
  et_name : string;
  et_consts : param list;  (** [const] parameters of the element type *)
  equations : equation list;  (** first equation is the initial behavior *)
  inputs : string list;
  outputs : string list;
}

type instance = {
  inst_name : string;
  inst_type : string;
  inst_args : expr list;
      (** expressions bound to [et_consts]; closed except for feature
          names, which elaboration substitutes per family member *)
}

type attachment = {
  from_inst : string;
  from_port : string;
  to_inst : string;
  to_port : string;
}

type feature = { f_name : string; f_domain : int list }
(** A feature parameter with a finite integer domain, declared right
    after the [ARCHI_TYPE] header: [feature timeout in {1, 2, 5, 10}].
    Feature names are visible in every behavior expression, guard, rate
    ([exp_mean]) and instance argument of the description; a {e member}
    of the family binds each feature to one domain value (see
    [Elaborate.elaborate_family]). The domain must be non-empty and
    duplicate-free. *)

type archi = {
  name : string;
  features : feature list;  (** the policy family's feature parameters *)
  elem_types : elem_type list;
  instances : instance list;
  attachments : attachment list;
}

val channel_name : attachment -> string
(** The composed action name of an attachment, in TwoTowers' notation:
    ["A.a#B.b"]. *)

val qualified : string -> string -> string
(** [qualified inst action] is ["inst.action"]. *)

val pp : Format.formatter -> archi -> unit
(** Pretty-print back to concrete syntax (parses to an equal AST). *)

val binop_level : binop -> int
(** Precedence level (higher binds tighter); shared by the printer and the
    parser. *)
