type components = {
  comp_of : int array;
  members : int array;
  comp_row : int array;
}

let count c = Array.length c.comp_row - 1

let tarjan_csr ~row ~dst n =
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  (* Tarjan's vertex stack, and the DFS as explicit frames (vertex, edge
     cursor) so deep graphs cannot overflow the call stack. *)
  let stack = Array.make n 0 and sp = ref 0 in
  let frame_v = Array.make n 0 and frame_e = Array.make n 0 and fp = ref 0 in
  let next_index = ref 0 in
  let comp_of = Array.make n (-1) in
  let members = Array.make n 0 and filled = ref 0 in
  let comp_starts = ref [ 0 ] and ncomps = ref 0 in
  let discover v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack.(!sp) <- v;
    incr sp;
    on_stack.(v) <- true;
    frame_v.(!fp) <- v;
    frame_e.(!fp) <- row.(v);
    incr fp
  in
  for root = 0 to n - 1 do
    if index.(root) = -1 then begin
      discover root;
      while !fp > 0 do
        let f = !fp - 1 in
        let v = frame_v.(f) in
        let e = frame_e.(f) in
        if e < row.(v + 1) then begin
          frame_e.(f) <- e + 1;
          let w = dst.(e) in
          if index.(w) = -1 then discover w
          else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w)
        end
        else begin
          if lowlink.(v) = index.(v) then begin
            (* Pop v's component: the stack segment from v to the top, in
               discovery order. *)
            let base = ref (!sp - 1) in
            while stack.(!base) <> v do
              decr base
            done;
            for i = !base to !sp - 1 do
              let w = stack.(i) in
              on_stack.(w) <- false;
              comp_of.(w) <- !ncomps;
              members.(!filled) <- w;
              incr filled
            done;
            sp := !base;
            incr ncomps;
            comp_starts := !filled :: !comp_starts
          end;
          decr fp;
          if !fp > 0 then begin
            let parent = frame_v.(!fp - 1) in
            lowlink.(parent) <- min lowlink.(parent) lowlink.(v)
          end
        end
      done
    end
  done;
  { comp_of; members; comp_row = Array.of_list (List.rev !comp_starts) }

let is_bottom ~row ~dst c ci =
  let leaves = ref false in
  for k = c.comp_row.(ci) to c.comp_row.(ci + 1) - 1 do
    let v = c.members.(k) in
    for e = row.(v) to row.(v + 1) - 1 do
      if c.comp_of.(dst.(e)) <> ci then leaves := true
    done
  done;
  not !leaves
