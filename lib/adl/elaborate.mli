(** Static checks and elaboration of an ADL architecture onto the process
    algebra kernel.

    Every instance becomes a sequential term whose actions are qualified by
    the instance name ("S.awake"); every attachment fuses its two ports into
    a single synchronized action named in TwoTowers style
    ("C.send_rpc_packet#RCS.get_packet"); the topology becomes a tree of
    parallel compositions synchronizing exactly on those fused names.

    Generally-distributed rates ([det], [norm], …) are kept exponential
    (same mean) in the rate annotations — that is precisely the Markovian
    view used for validation — and returned separately as per-action
    distribution overrides for the simulator. *)

exception Check_error of string

type elaborated = {
  spec : Dpma_pa.Term.spec;
  general_timings : (string * Dpma_dist.Dist.t) list;
      (** final action name -> general distribution override *)
  instance_actions : (string * string list) list;
      (** instance name -> final names of its actions (channels included) *)
  unattached_interactions : string list;
      (** declared interactions left unattached (open ports) *)
}

val check : Ast.archi -> unit
(** Raises {!Check_error} on: duplicate names; undefined element types or
    equations; declared interactions missing from the behavior
    (used-but-undeclared actions are internal by convention); overlapping
    input/output declarations; attachments on undeclared ports or with a
    port attached twice; the reserved action name [tau]; and data-parameter
    errors — arity or type mismatches in calls and instance arguments,
    non-boolean guards, unbound parameters, non-closed const arguments
    (feature names excepted), data parameters on an initial behavior,
    non-integer [exp_mean] arguments, empty or duplicated feature domains,
    and local parameters shadowing a feature. *)

val elaborate : ?max_expansions:int -> Ast.archi -> elaborated
(** Runs {!check} first. Behavior equations with data parameters are
    expanded into one process constant per reachable argument tuple
    (["B.Buffer(3)"]); guards are resolved during the expansion.
    Features, if any, are bound to the {e first} value of their domain —
    the family's representative member. [max_expansions] (default
    200_000) bounds the total number of expanded constants, catching
    unbounded data recursion with a clear error. *)

(** {2 Configuration families} *)

type family = {
  features : (string * int list) list;
      (** the declared features, in declaration order *)
  bindings : (string * int) list array;
      (** per member: the value bound to each feature *)
  members : elaborated array;  (** one elaboration per binding *)
}

val elaborate_family :
  ?max_expansions:int -> ?sweep:string list -> Ast.archi -> family
(** One elaboration per point of the feature domain product, enumerated in
    declaration order with the last feature varying fastest. With
    [~sweep:names], only the named features vary — a cartesian sweep
    {e grid} — and every other one is pinned to the first value of its
    domain; omitting [sweep] (or naming every feature) varies them all.
    Feature domains may be written as ranges ([timeout in {1 .. 16}]),
    so a 10^3-member grid is one declaration line. Because
    process-constant names do not mention feature values, the members'
    definitions coincide on every behavior a feature does not reach —
    which is what lets [Dpma_pa.Feature.make] derive shared behaviors
    once for the whole family. Members that bind the features an
    instance reads (in its const arguments and its element type's
    guards, rates and call arguments) alike share that instance's
    translation; every member still equals its own elaboration, and a
    member's errors (distribution conflicts, [max_expansions]) are the
    ones it would raise alone. Raises {!Check_error} if no feature is
    declared, [sweep] names an unknown feature, or the family exceeds
    4096 members. *)

val actions_of_instance : elaborated -> string -> string list
(** Final action names of one instance ([Check_error] if unknown). *)
