(* Numerical analysis of cardinality estimators. An estimator is probed
   over every connected subset of the query graph — exactly the domain
   the enumerators will query it on — and each output is checked:

   - finiteness and sign: no NaN, no infinity, no negative cardinality
     (these silently poison cost comparisons and every downstream
     figure);
   - cross-product inclusion bound: growing a connected subset S by one
     adjacent relation r can multiply the true cardinality by at most
     |r|, so the estimate for S ∪ {r} must stay within
     slack · est(S) · base(r). The slack absorbs the floor/clamp
     rounding real systems apply (DBMS B floors to an integer, which
     can shrink each factor by almost 2×); estimates that legitimately
     clamp up to one row are exempted via an absolute floor of 1;
   - PK inclusion bound (exact estimators only): when r sits on the
     primary-key side of a crossing join edge, each tuple of S matches
     at most one r-tuple, so card(S ∪ {r}) ≤ card(S). Only the true
     cardinality oracle is required to satisfy this — statistics-based
     estimators violate it routinely, which is the paper's point — so
     it is opt-in via [pk_bound];
   - q-error bookkeeping: [q_error_checked] refuses NaN/Inf/negative
     inputs instead of letting them flow into percentile tables. *)

module Bitset = Util.Bitset
module QG = Query.Query_graph

let pass = "estimate-sanitizer"

let default_slack = 4.0

let is_bad x = Float.is_nan x || x = Float.infinity || x = Float.neg_infinity

let q_error_checked ~estimate ~truth =
  if is_bad estimate || estimate < 0.0 then
    Error (Printf.sprintf "q-error: bad estimate %h" estimate)
  else if is_bad truth || truth < 0.0 then
    Error (Printf.sprintf "q-error: bad truth %h" truth)
  else Ok (Util.Stat.q_error ~estimate ~truth)

let check ?(subject = "estimator") ?(slack = default_slack)
    ?(pk_bound = false) ?truth graph (est : Cardest.Estimator.t) =
  let c = Violation.collector ~pass ~subject in
  let pp_set () s = Format.asprintf "%a" Bitset.pp s in
  let subsets = QG.connected_subsets graph in
  let well_formed what s v =
    Violation.check c (not (is_bad v)) "%s for %a is %h" what pp_set s v;
    Violation.check c (is_bad v || v >= 0.0) "%s for %a is negative: %g" what
      pp_set s v
  in
  (* Base estimates: the per-relation numbers composition starts from. *)
  for r = 0 to QG.n_relations graph - 1 do
    well_formed "base estimate" (Bitset.singleton r) (est.Cardest.Estimator.base r)
  done;
  Array.iter
    (fun s ->
      let v = est.Cardest.Estimator.subset s in
      well_formed "estimate" s v;
      (* Inclusion bounds: compare est(S ∪ {r}) against est(S) for every
         adjacent relation r. *)
      if not (is_bad v) then
        Bitset.iter
          (fun r ->
            let grown = Bitset.add r s in
            let gv = est.Cardest.Estimator.subset grown in
            if not (is_bad gv) then begin
              let base = est.Cardest.Estimator.base r in
              Violation.check c
                (gv <= Float.max 1.0 (slack *. v *. Float.max 1.0 base))
                "estimate %g for %a exceeds cross-product bound %g · est(%a)=%g \
                 · base(%d)=%g"
                gv pp_set grown slack pp_set s v r base;
              if pk_bound then begin
                let crossing = QG.edges_between graph s (Bitset.singleton r) in
                let r_is_pk_side =
                  List.exists
                    (fun (e : QG.edge) -> e.QG.pk_side = Some `Right)
                    crossing
                in
                if r_is_pk_side then
                  Violation.check c
                    (gv <= v *. (1.0 +. 1e-9))
                    "PK inclusion bound: est %g for %a exceeds est %g for %a \
                     though relation %d joins on its primary key"
                    gv pp_set grown v pp_set s r
              end
            end)
          (QG.neighbors graph s);
      (* q-error bookkeeping against the truth oracle, when provided. *)
      match truth with
      | None -> ()
      | Some tr ->
          let t = tr s in
          Violation.check c
            (Result.is_ok (q_error_checked ~estimate:v ~truth:t))
            "q-error for %a is not computable (estimate %h, truth %h)"
            pp_set s v t)
    subsets;
  Violation.result c
