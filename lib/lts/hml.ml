type t =
  | True
  | Not of t
  | And of t list
  | Diamond of Lts.label * t

let neg = function Not f -> f | f -> Not f

let conj fs =
  let flattened =
    List.concat_map (function And gs -> gs | g -> [ g ]) fs
  in
  (* Conjunction is idempotent: drop duplicates (and the True unit) so
     diagnostic formulas stay small. *)
  match List.sort_uniq compare (List.filter (fun f -> f <> True) flattened) with
  | [] -> True
  | [ f ] -> f
  | fs -> And fs

let diamond l f = Diamond (l, f)

let rec size = function
  | True -> 1
  | Not f -> 1 + size f
  | And fs -> List.fold_left (fun acc f -> acc + size f) 1 fs
  | Diamond (_, f) -> 1 + size f

let rec depth = function
  | True -> 0
  | Not f -> depth f
  | And fs -> List.fold_left (fun acc f -> max acc (depth f)) 0 fs
  | Diamond (_, f) -> 1 + depth f

let rec sat lts s = function
  | True -> true
  | Not f -> not (sat lts s f)
  | And fs -> List.for_all (sat lts s) fs
  | Diamond (l, f) ->
      let rec go i =
        i < lts.Lts.row.(s + 1)
        && ((lts.Lts.lab.(i) = l && sat lts lts.Lts.tgt.(i) f) || go (i + 1))
      in
      go lts.Lts.row.(s)

let rec pp ?(weak = true) ppf f =
  let modality = if weak then "EXISTS_WEAK_TRANS" else "EXISTS_TRANS" in
  match f with
  | True -> Format.pp_print_string ppf "TRUE"
  | Not g -> Format.fprintf ppf "@[<hv 2>NOT(@,%a@;<0 -2>)@]" (pp ~weak) g
  | And gs ->
      Format.fprintf ppf "@[<hv 2>AND(@,%a@;<0 -2>)@]"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
           (pp ~weak))
        gs
  | Diamond (l, g) ->
      let pp_lab ppf l =
        if Lts.is_tau l then Format.pp_print_string ppf "TAU"
        else Format.fprintf ppf "LABEL(%s)" (Lts.label_name l)
      in
      Format.fprintf ppf "@[<hv 2>%s(@,%a;@ REACHED_STATE_SAT(%a)@;<0 -2>)@]"
        modality pp_lab l (pp ~weak) g

let to_string ?weak f = Format.asprintf "%a" (pp ?weak) f
