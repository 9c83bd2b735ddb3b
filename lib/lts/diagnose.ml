(* Kanellakis–Smolka partition refinement instrumented with a splitting
   tree, followed by Cleaveland's recursive formula extraction. Each tree
   node is the block as it existed when the node was created; a split
   stores the (label, splitter-node) pair that caused it. Because states
   never move across subtrees, "state x belonged to block C when C was used
   as a splitter" is exactly "C is an ancestor of x's current leaf". *)

(* Monomorphic int-keyed tables (same multiplicative mix as [Bisim] and
   [Semantics]): the tree refinement and the formula memo sit on the
   diagnostic path of every INSECURE verdict, and the polymorphic
   [Hashtbl] would hash node ids and state pairs through the generic
   structural hasher. *)
module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = (x * 0x9E37_79B9) land max_int
end)

type node = {
  id : int;
  mutable parent : node option;
  depth : int;
  mutable split : (Lts.label * node * node * node) option;
      (* (label, splitter, child_yes, child_no): child_yes holds the states
         with a [label]-transition into the splitter block *)
  mutable split_time : int;
}

let rec is_ancestor ancestor node =
  ancestor.id = node.id
  || match node.parent with None -> false | Some p -> is_ancestor ancestor p

(* [early_stop] halts the refinement right after the split that first
   separates [s0] and [t0]. The extracted formula is identical to the one
   the fully stabilized tree yields: every (s, t) pair Cleaveland's
   recursion visits is already in different leaves when the watched pair
   splits (the recursion only descends to pairs separated at their LCA's
   split time or earlier), so every LCA, splitter, and ancestor test it
   consults was settled — and is immutable — before the stopping point;
   later splits only deepen leaves without moving states across subtrees,
   which changes no [lca] result and no [is_ancestor] answer. *)
let formula_core ~early_stop (lts : Lts.t) s0 t0 =
  let n = lts.num_states in
  let next_id = ref 0 in
  let make_node parent depth =
    let node = { id = !next_id; parent; depth; split = None; split_time = -1 } in
    incr next_id;
    node
  in
  let root = make_node None 0 in
  let leaf = Array.make n root in
  (* members.(node.id) is filled only for current leaves. *)
  let members : int list Int_tbl.t = Int_tbl.create 64 in
  Int_tbl.add members root.id (List.init n (fun i -> i));
  let labels = Lts.labels lts in
  (* The [label]-successors of [s], through [f], sorted and deduped. *)
  let successors s label f =
    let acc = ref [] in
    for i = lts.row.(s) to lts.row.(s + 1) - 1 do
      if lts.lab.(i) = label then acc := f lts.tgt.(i) :: !acc
    done;
    List.sort_uniq Int.compare !acc
  in
  (* The target of the first [label]-edge of [s] satisfying [p]. *)
  let first_target s label p =
    let rec go i =
      if i >= lts.row.(s + 1) then assert false
      else if lts.lab.(i) = label && p lts.tgt.(i) then lts.tgt.(i)
      else go (i + 1)
    in
    go lts.row.(s)
  in
  let clock = ref 0 in
  let try_split_block block_node =
    let states = Int_tbl.find members block_node.id in
    match states with
    | [] | [ _ ] -> false
    | _ ->
        (* For each label, group the block's states by the set of leaf
           blocks they can reach; the first proper split wins. *)
        let attempt label =
          let targets_of s = successors s label (fun t -> leaf.(t).id) in
          let reach = List.map (fun s -> (s, targets_of s)) states in
          let candidate_ids =
            List.concat_map snd reach |> List.sort_uniq Int.compare
          in
          let rec find_splitter = function
            | [] -> false
            | cid :: rest ->
                let yes, no =
                  List.partition (fun (_, ts) -> List.mem cid ts) reach
                in
                if yes = [] || no = [] then find_splitter rest
                else begin
                  let splitter =
                    (* The current leaf with id [cid]: every state in
                       [yes] has a [label]-edge into it. *)
                    let s = fst (List.hd yes) in
                    leaf.(first_target s label (fun t -> leaf.(t).id = cid))
                  in
                  let child_yes = make_node (Some block_node) (block_node.depth + 1) in
                  let child_no = make_node (Some block_node) (block_node.depth + 1) in
                  block_node.split <- Some (label, splitter, child_yes, child_no);
                  block_node.split_time <- !clock;
                  incr clock;
                  Int_tbl.remove members block_node.id;
                  Int_tbl.add members child_yes.id (List.map fst yes);
                  Int_tbl.add members child_no.id (List.map fst no);
                  List.iter (fun (s, _) -> leaf.(s) <- child_yes) yes;
                  List.iter (fun (s, _) -> leaf.(s) <- child_no) no;
                  true
                end
          in
          find_splitter candidate_ids
        in
        List.exists attempt labels
  in
  let rec refine_until_stable () =
    let nodes = Int_tbl.fold (fun id _ acc -> id :: acc) members [] in
    let split_any =
      List.exists
        (fun id ->
          (* The node may have been split already in this sweep. *)
          match Int_tbl.find_opt members id with
          | None | Some ([] | [ _ ]) -> false
          | Some (s :: _) -> try_split_block leaf.(s))
        nodes
    in
    if split_any && not (early_stop && leaf.(s0).id <> leaf.(t0).id) then
      refine_until_stable ()
  in
  refine_until_stable ();
  if leaf.(s0).id = leaf.(t0).id then None
  else begin
    (* Lowest common ancestor of the two leaves. *)
    let rec lca a b =
      if a.id = b.id then a
      else if a.depth > b.depth then
        lca (Option.get a.parent) b
      else if b.depth > a.depth then lca a (Option.get b.parent)
      else lca (Option.get a.parent) (Option.get b.parent)
    in
    (* State pairs packed as [s * n + t]: both components are < n, so the
       packing is injective and fits an OCaml int for any LTS we build. *)
    let memo : Hml.t Int_tbl.t = Int_tbl.create 64 in
    let rec dist s t =
      match Int_tbl.find_opt memo ((s * n) + t) with
      | Some f -> f
      | None ->
          let f = dist_uncached s t in
          Int_tbl.add memo ((s * n) + t) f;
          f
    and dist_uncached s t =
      let node = lca leaf.(s) leaf.(t) in
      match node.split with
      | None -> assert false (* s, t in different leaves => LCA has split *)
      | Some (label, splitter, child_yes, _child_no) ->
          let s_in_yes = is_ancestor child_yes leaf.(s) in
          let s', t' = if s_in_yes then (s, t) else (t, s) in
          (* s' has a [label]-move into the splitter block; t' has none. *)
          let witness =
            first_target s' label (fun t -> is_ancestor splitter leaf.(t))
          in
          let t_succs = successors t' label Fun.id in
          let conjuncts = List.map (fun u -> dist witness u) t_succs in
          let formula = Hml.diamond label (Hml.conj conjuncts) in
          if s_in_yes then formula else Hml.neg formula
    in
    Some (dist s0 t0)
  end

let distinguishing_formula lts s0 t0 = formula_core ~early_stop:false lts s0 t0

(* Formula extraction needs the *unreduced* saturated union: the splitting
   tree's trajectory (and hence the exact formula) depends on every state,
   including the ones the product refiner's verdict phase pruned or
   quotiented away. That closure is diagnostic-grade work — it only runs
   once insecurity is already established, on the small models a designer
   is actively debugging — so it is accounted under its own
   "diagnose.saturate" span ([Tau.saturate] opens none). *)
let of_product_trail (trail : Bisim.product_trail) =
  let union, ia, ib = Lts.disjoint_union trail.Bisim.left trail.Bisim.right in
  let saturated =
    Dpma_obs.Trace.with_span "diagnose.saturate"
      ~attrs:[ ("states", Dpma_obs.Trace.Int union.Lts.num_states) ]
      (fun () -> Tau.saturate union)
  in
  match formula_core ~early_stop:true saturated ia ib with
  | Some f -> f
  | None ->
      (* The product refiner split the pair, and the tree refinement
         computes the same (weak-bisimulation) partition. *)
      assert false
