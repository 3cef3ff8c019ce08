module P = Query.Predicate
module CS = Dbstats.Column_stats

type magic = {
  like_contains : float;
  like_prefix : float;
  default_range : float;
}

let pg_magic = { like_contains = 0.005; like_prefix = 0.02; default_range = 0.333 }

let clamp01 x = Float.min 1.0 (Float.max 0.0 x)

(* Mass available to non-MCV, non-NULL values. *)
let leftover (stats : CS.t) =
  clamp01 (1.0 -. CS.mcv_fraction_total stats -. stats.CS.null_fraction)

let eq_unseen (stats : CS.t) =
  let n_mcv = float_of_int (Array.length stats.CS.mcv) in
  let d = Float.max 1.0 (stats.CS.distinct_sampled -. n_mcv) in
  clamp01 (leftover stats /. d)

let eq_selectivity (stats : CS.t) code =
  if code < 0 then eq_unseen stats (* constant absent from the dictionary *)
  else
    match CS.mcv_find stats code with
    | Some f -> f
    | None -> eq_unseen stats

let cmp_int v op c =
  match (op : P.cmp) with
  | P.Eq -> v = c
  | P.Ne -> v <> c
  | P.Lt -> v < c
  | P.Le -> v <= c
  | P.Gt -> v > c
  | P.Ge -> v >= c

(* Order comparison in rank space: histogram mass (scaled to the non-MCV
   leftover) plus the MCV entries that satisfy the operator. *)
let rank_cmp_selectivity (stats : CS.t) ~magic ~rank_of_code op rank_const =
  let hist_part =
    match CS.histogram stats with
    | None -> magic.default_range
    | Some h -> Dbstats.Histogram.cmp_selectivity h op rank_const
  in
  let mcv_part =
    Array.fold_left
      (fun acc (code, f) ->
        if cmp_int (rank_of_code code) op rank_const then acc +. f else acc)
      0.0 stats.CS.mcv
  in
  clamp01 ((hist_part *. leftover stats) +. mcv_part)

let rec atom ~stats ~table ~magic (a : P.atom) =
  match a with
  | P.Const_false -> eq_unseen stats
  | P.Cmp { op = P.Eq; code; _ } -> eq_selectivity stats code
  | P.Cmp { op = P.Ne; code; _ } ->
      clamp01 (1.0 -. eq_selectivity stats code -. stats.CS.null_fraction)
  | P.Cmp { op; code; col } ->
      let column = Storage.Table.column table col in
      let rank_of_code c = CS.rank stats c in
      let rank_const =
        match Storage.Column.dict column with
        | None -> code
        | Some _ -> if code < 0 then 0 else CS.rank stats code
      in
      rank_cmp_selectivity stats ~magic ~rank_of_code op rank_const
  | P.Str_cmp { op; value; col } ->
      let column = Storage.Table.column table col in
      let rank_const = CS.rank_of_string stats column value in
      (* The constant sits between ranks; treat op uniformly on ranks. *)
      rank_cmp_selectivity stats ~magic ~rank_of_code:(CS.rank stats) op
        (match op with P.Lt | P.Le -> rank_const - 1 | _ -> rank_const)
  | P.Between { lo; hi; _ } ->
      let ge =
        rank_cmp_selectivity stats ~magic ~rank_of_code:(fun c -> c) P.Ge lo
      in
      let gt_hi =
        rank_cmp_selectivity stats ~magic ~rank_of_code:(fun c -> c) P.Gt hi
      in
      clamp01 (ge -. gt_hi)
  | P.In { codes; _ } ->
      clamp01 (List.fold_left (fun acc c -> acc +. eq_selectivity stats c) 0.0 codes)
  | P.Like { pattern; negated; _ } ->
      let s =
        if Query.Like_match.is_prefix_pattern pattern then magic.like_prefix
        else magic.like_contains
      in
      if negated then clamp01 (1.0 -. s) else s
  | P.Is_null { negated; _ } ->
      if negated then clamp01 (1.0 -. stats.CS.null_fraction)
      else stats.CS.null_fraction
  | P.Or atoms ->
      (* s1 + s2 - s1*s2, folded left to right. *)
      List.fold_left
        (fun acc a ->
          let s = atom ~stats ~table ~magic a in
          acc +. s -. (acc *. s))
        0.0 atoms

let conjunction ~stats_of ~table ~magic preds =
  List.fold_left
    (fun acc a ->
      match P.atom_column a with
      | Some col -> acc *. atom ~stats:(stats_of col) ~table ~magic a
      | None -> acc *. 1e-7)
    1.0 preds
