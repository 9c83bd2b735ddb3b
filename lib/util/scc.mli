(** Strongly connected components (Tarjan) and bottom-SCC detection.

    The CTMC solver uses this to locate the recurrent class(es) of a chain
    with a transient prefix (e.g. the streaming client's initial delay),
    and to walk its transient components sinks first; the weak and
    branching refinements use it to collapse tau-cycles. *)

type components = {
  comp_of : int array;  (** component index of each vertex *)
  members : int array;
      (** vertices grouped by component, each group in DFS discovery
          order *)
  comp_row : int array;
      (** members of component [c] occupy [comp_row.(c)] inclusive to
          [comp_row.(c+1)] exclusive; length [count + 1] *)
}

val tarjan_csr : row:int array -> dst:int array -> int -> components
(** [tarjan_csr ~row ~dst n] — components of the graph on [0..n-1] whose
    successors of [v] are [dst.(row.(v)) .. dst.(row.(v+1) - 1)], visited
    in that order, roots in increasing order. Components are numbered in
    reverse topological order: every edge goes from a component to one
    with a smaller or equal index. *)

val count : components -> int

val is_bottom : row:int array -> dst:int array -> components -> int -> bool
(** [is_bottom ~row ~dst c ci] — no edge leaves component [ci]. *)
