(* Tests for plan enumeration: DP optimality against brute-force plan
   enumeration, shape restrictions, Quickpick and GOO validity. *)

module Bitset = Util.Bitset
module QG = Query.Query_graph

let micro ?(relations = 4) ?(extra_edges = 0) seed =
  let prng = Util.Prng.create seed in
  let db = Support.micro_db prng ~tables:relations ~rows:15 in
  let g = Support.micro_query prng db ~relations ~extra_edges in
  (db, g)

let search ?allow_nl ?shape db g card =
  Planner.Search.create ?allow_nl ?shape ~model:Cost.Cost_model.cmm ~graph:g
    ~db ~card ()

let true_search ?allow_nl ?shape db g =
  let tc = Cardest.True_card.compute g in
  search ?allow_nl ?shape db g (Cardest.True_card.card tc)

(* Brute-force minimum over every bushy hash-join-only plan: with
   indexes disabled and NL joins off, DP must find exactly this cost. *)
let brute_force_best_cost env graph =
  let model = Cost.Cost_model.cmm in
  let rec best subset =
    if Bitset.cardinal subset = 1 then
      model.Cost.Cost_model.scan_cost env (Bitset.lowest subset)
    else begin
      let best_cost = ref infinity in
      Bitset.subsets_iter subset (fun s1 ->
          let s2 = Bitset.diff subset s1 in
          if
            QG.is_connected graph s1 && QG.is_connected graph s2
            && QG.edges_between graph s1 s2 <> []
          then begin
            (* Build dummy plans carrying the right sets. *)
            let rec plan_of s =
              if Bitset.cardinal s = 1 then Plan.scan (Bitset.lowest s)
              else
                let one = Bitset.lowest_bit s in
                Plan.join Plan.Hash_join ~outer:(plan_of one)
                  ~inner:(plan_of (Bitset.diff s one))
            in
            let cost =
              Cost.Cost_model.join_cost_from_env model env Plan.Hash_join
                ~outer:(plan_of s1) ~inner:(plan_of s2) ~outer_cost:(best s1)
                ~inner_cost:(best s2)
            in
            if cost < !best_cost then best_cost := cost
          end);
      !best_cost
    end
  in
  best (QG.full_set graph)

let dp_matches_brute_force =
  Support.qcheck_case ~count:25 ~name:"DP cost = brute-force optimum (hash joins only)"
    QCheck.(pair small_int (int_range 2 4))
    (fun (seed, relations) ->
      let db, g = micro ~relations seed in
      Storage.Database.set_index_config db Storage.Database.No_indexes;
      let tc = Cardest.True_card.compute g in
      let env =
        { Cost.Cost_model.graph = g; db; card = Cardest.True_card.card tc }
      in
      let s = search db g (Cardest.True_card.card tc) in
      let _, dp_cost = Planner.Dp.optimize s in
      Float.abs (dp_cost -. brute_force_best_cost env g) < 1e-6)

let dp_plans_valid =
  Support.qcheck_case ~count:25 ~name:"DP plans validate"
    QCheck.(pair small_int (int_range 2 5))
    (fun (seed, relations) ->
      let db, g = micro ~relations ~extra_edges:1 seed in
      Storage.Database.set_index_config db Storage.Database.Pk_fk;
      let plan, _ = Planner.Dp.optimize (true_search db g) in
      Plan.validate g plan = Ok ())

let test_shape_restrictions_respected () =
  let db, g = micro ~relations:5 3 in
  Storage.Database.set_index_config db Storage.Database.Pk_fk;
  let check_shape shape_limit accepted =
    let plan, cost =
      Planner.Dp.optimize (true_search ~shape:shape_limit db g)
    in
    let s = Plan.shape plan in
    Alcotest.(check bool)
      (Printf.sprintf "%s plan is %s" (Plan.shape_to_string s)
         (String.concat "/" (List.map Plan.shape_to_string accepted)))
      true
      (List.mem s accepted);
    cost
  in
  let bushy = snd (Planner.Dp.optimize (true_search db g)) in
  let zig = check_shape Planner.Search.Only_zig_zag [ Plan.Left_deep; Plan.Right_deep; Plan.Zig_zag ] in
  let left = check_shape Planner.Search.Only_left_deep [ Plan.Left_deep ] in
  let right = check_shape Planner.Search.Only_right_deep [ Plan.Left_deep; Plan.Right_deep ] in
  (* Restricting the space can only cost more. *)
  Alcotest.(check bool) "zig >= bushy" true (zig >= bushy -. 1e-9);
  Alcotest.(check bool) "left >= zig" true (left >= zig -. 1e-9);
  Alcotest.(check bool) "right >= bushy" true (right >= bushy -. 1e-9)

let quickpick_valid_and_dominated =
  Support.qcheck_case ~count:20 ~name:"Quickpick plans valid and >= DP cost"
    QCheck.small_int
    (fun seed ->
      let db, g = micro ~relations:4 seed in
      Storage.Database.set_index_config db Storage.Database.Pk_only;
      let s = true_search db g in
      let _, optimal = Planner.Dp.optimize s in
      let prng = Util.Prng.create seed in
      let plan, cost = Planner.Quickpick.sample s prng in
      Plan.validate g plan = Ok () && cost >= optimal -. 1e-9)

let test_quickpick_best_of_improves () =
  let db, g = micro ~relations:5 11 in
  Storage.Database.set_index_config db Storage.Database.Pk_only;
  let s = true_search db g in
  let prng1 = Util.Prng.create 1 in
  let _, one = Planner.Quickpick.sample s prng1 in
  let prng2 = Util.Prng.create 1 in
  let _, best = Planner.Quickpick.best_of s prng2 ~attempts:50 in
  Alcotest.(check bool) "best-of-50 <= first sample" true (best <= one +. 1e-9)

let test_quickpick_deterministic () =
  let db, g = micro ~relations:4 5 in
  let s = true_search db g in
  let c1 = Planner.Quickpick.sample_costs s (Util.Prng.create 9) ~attempts:20 in
  let c2 = Planner.Quickpick.sample_costs s (Util.Prng.create 9) ~attempts:20 in
  Alcotest.(check (array (float 0.0))) "same prng same costs" c1 c2

let goo_valid_and_dominated =
  Support.qcheck_case ~count:20 ~name:"GOO plans valid and >= DP cost"
    QCheck.small_int
    (fun seed ->
      let db, g = micro ~relations:4 seed in
      Storage.Database.set_index_config db Storage.Database.Pk_only;
      let s = true_search db g in
      let _, optimal = Planner.Dp.optimize s in
      let plan, cost = Planner.Goo.optimize s in
      Plan.validate g plan = Ok () && cost >= optimal -. 1e-9)

let test_inl_requires_index () =
  let db, g = micro ~relations:3 2 in
  let s config =
    Storage.Database.set_index_config db config;
    true_search db g
  in
  (* Edges are FK -> PK (right side is a pk "id" column). *)
  let e = List.hd (QG.edges g) in
  let outer = Plan.scan e.QG.left and inner = Plan.scan e.QG.right in
  Alcotest.(check bool) "no indexes: no INL" false
    (Planner.Search.inl_possible (s Storage.Database.No_indexes) ~outer ~inner);
  Alcotest.(check bool) "pk indexes: INL available" true
    (Planner.Search.inl_possible (s Storage.Database.Pk_only) ~outer ~inner)

(* Equal costs everywhere: the earliest legal algorithm of NL, INL,
   merge, hash wins. *)
let test_cheapest_algo_ties () =
  let db, g = micro ~relations:3 2 in
  Storage.Database.set_index_config db Storage.Database.Pk_only;
  let flat =
    {
      Cost.Cost_model.name = "flat";
      scan_cost = (fun _ _ -> 1.0);
      join_cost =
        (fun _ _ ~outer:_ ~inner:_ ~outer_cost:_ ~inner_cost:_ ~out_card:_ ~outer_card:_
             ~inner_card:_ -> 1.0);
    }
  in
  let e = List.hd (QG.edges g) in
  let pick ?allow_nl ?allow_hash ~outer ~inner () =
    let s =
      Planner.Search.create ?allow_nl ?allow_hash ~model:flat ~graph:g ~db
        ~card:(fun _ -> 1.0) ()
    in
    fst
      (Planner.Search.cheapest_algo s ~outer:(Plan.scan outer) ~inner:(Plan.scan inner)
         ~outer_cost:1.0 ~inner_cost:1.0 ~out_card:1.0 ~outer_card:1.0 ~inner_card:1.0)
  in
  let algo = Alcotest.testable (Fmt.of_to_string Plan.algo_to_string) ( = ) in
  (* The edge's right side is a primary key, so INL is legal into it. *)
  let outer = e.QG.left and inner = e.QG.right in
  Alcotest.check algo "NL first" Plan.Nl_join (pick ~allow_nl:true ~outer ~inner ());
  Alcotest.check algo "then INL" Plan.Index_nl_join (pick ~outer ~inner ());
  Alcotest.check algo "then merge" Plan.Merge_join
    (pick ~outer:inner ~inner:outer ());
  Alcotest.check algo "merge before hash" Plan.Merge_join
    (pick ~allow_hash:true ~outer:inner ~inner:outer ())

let test_nl_only_when_allowed () =
  let db, g = micro ~relations:3 6 in
  Storage.Database.set_index_config db Storage.Database.No_indexes;
  let tc = Cardest.True_card.compute g in
  (* An estimate of ~1 row everywhere makes NL the cheapest option under
     the PostgreSQL model when it is allowed. *)
  let tiny = Cardest.Estimator.of_function ~name:"tiny" ~base:(fun _ -> 1.0) (fun _ -> 1.0) in
  ignore tc;
  let with_nl =
    Planner.Search.create ~allow_nl:true ~model:Cost.Cost_model.postgres
      ~graph:g ~db ~card:tiny.Cardest.Estimator.subset ()
  in
  let without_nl =
    Planner.Search.create ~allow_nl:false ~model:Cost.Cost_model.postgres
      ~graph:g ~db ~card:tiny.Cardest.Estimator.subset ()
  in
  let has_nl plan =
    Plan.fold
      (fun acc (n : Plan.t) ->
        acc
        || match n.Plan.op with Plan.Join { algo = Plan.Nl_join; _ } -> true | _ -> false)
      false plan
  in
  let plan_nl, _ = Planner.Dp.optimize with_nl in
  let plan_no, _ = Planner.Dp.optimize without_nl in
  Alcotest.(check bool) "nl appears when allowed" true (has_nl plan_nl);
  Alcotest.(check bool) "nl never when disabled" false (has_nl plan_no)

let test_dp_subsets_table () =
  let db, g = micro ~relations:4 8 in
  let table = Planner.Dp.optimize_all_subsets (true_search db g) in
  (* Every connected subset gets an entry. *)
  Array.iteri
    (fun o s ->
      Alcotest.(check bool)
        (Format.asprintf "entry for %a" Bitset.pp s)
        true
        (table.(o) <> None))
    (QG.connected_subsets g)

(* ------------------------------------------------------------------ *)
(* Plan-identity oracle                                                *)

(* The planner as it was before the plan space was precomputed: DPsub
   over every submask of every connected subset (found by a scan of all
   2^n masks), a hash-table memo, and per-candidate costing in which
   every join algorithm fetches its own cardinalities from [env.card].
   The cost formulas are copied too, so a drift in [Cost_model]'s
   arithmetic shows as well. *)
module Oracle = struct
  open Cost.Cost_model

  let table_rows env rel =
    float_of_int (Storage.Table.row_count (QG.relation env.graph rel).QG.table)

  let pred_count env rel = List.length (QG.relation env.graph rel).QG.preds

  let unfiltered_matches env ~out_card ~inner_rel =
    let filtered = Float.max 1e-9 (env.card (Bitset.singleton inner_rel)) in
    let selectivity = filtered /. Float.max 1.0 (table_rows env inner_rel) in
    out_card /. Float.max 1e-9 selectivity

  let sort_cost n =
    let n = Float.max 2.0 n in
    n *. (Float.log n /. Float.log 2.0)

  let cmm env algo ~(outer : Plan.t) ~(inner : Plan.t) ~outer_cost ~inner_cost =
    let out_card = env.card (Bitset.union outer.Plan.set inner.Plan.set) in
    match algo with
    | Plan.Hash_join -> out_card +. outer_cost +. inner_cost
    | Plan.Merge_join ->
        let oc = env.card outer.Plan.set and ic = env.card inner.Plan.set in
        sort_cost oc +. sort_cost ic +. oc +. ic +. out_card +. outer_cost +. inner_cost
    | Plan.Nl_join ->
        let oc = env.card outer.Plan.set and ic = env.card inner.Plan.set in
        (oc *. ic) +. out_card +. outer_cost +. inner_cost
    | Plan.Index_nl_join ->
        let inner_rel = Option.get (Plan.base_rel inner) in
        let oc = env.card outer.Plan.set in
        let lookups = Float.max (unfiltered_matches env ~out_card ~inner_rel) oc in
        outer_cost +. (cmm_lambda *. lookups)

  let pg ~cpu env algo ~(outer : Plan.t) ~(inner : Plan.t) ~outer_cost ~inner_cost =
    let random_page = 4.0 in
    let cpu_tuple = 0.01 *. cpu and cpu_index_tuple = 0.005 *. cpu in
    let cpu_operator = 0.0025 *. cpu in
    let out_card = env.card (Bitset.union outer.Plan.set inner.Plan.set) in
    let oc = env.card outer.Plan.set and ic = env.card inner.Plan.set in
    match algo with
    | Plan.Hash_join ->
        outer_cost +. inner_cost
        +. (ic *. (cpu_operator +. cpu_tuple))
        +. (oc *. cpu_operator)
        +. (out_card *. cpu_tuple)
    | Plan.Merge_join ->
        outer_cost +. inner_cost
        +. ((sort_cost oc +. sort_cost ic) *. cpu_operator)
        +. ((oc +. ic) *. cpu_operator)
        +. (out_card *. cpu_tuple)
    | Plan.Nl_join ->
        outer_cost +. inner_cost +. (oc *. ic *. cpu_operator) +. (out_card *. cpu_tuple)
    | Plan.Index_nl_join ->
        let inner_rel = Option.get (Plan.base_rel inner) in
        let inner_rows = Float.max 2.0 (table_rows env inner_rel) in
        let descent = cpu_index_tuple *. (Float.log inner_rows /. Float.log 2.0) in
        let matches = unfiltered_matches env ~out_card ~inner_rel in
        outer_cost
        +. (oc *. (descent +. random_page))
        +. (matches
           *. (cpu_tuple +. (0.25 *. random_page)
              +. (float_of_int (pred_count env inner_rel) *. cpu_operator)))

  let join_cost (model : t) =
    match model.name with
    | "Cmm" -> cmm
    | "PostgreSQL" -> pg ~cpu:1.0
    | "tuned" -> pg ~cpu:50.0
    | other -> Alcotest.failf "oracle: no copy of cost model %s" other

  let inl_possible (t : Planner.Search.t) ~(outer : Plan.t) ~(inner : Plan.t) =
    match Plan.base_rel inner with
    | None -> false
    | Some r ->
        let graph = t.env.graph in
        let table = Storage.Table.name (QG.relation graph r).QG.table in
        List.exists
          (fun (e : QG.edge) ->
            Storage.Database.index t.env.db ~table ~col:e.QG.right_col <> None)
          (QG.edges_between graph outer.Plan.set inner.Plan.set)

  let best_join (t : Planner.Search.t) ~outer:(outer, outer_cost) ~inner:(inner, inner_cost)
      =
    if not (Planner.Search.shape_allows t ~outer ~inner) then None
    else begin
      let candidates = ref [] in
      let consider algo =
        let cost = join_cost t.model t.env algo ~outer ~inner ~outer_cost ~inner_cost in
        candidates := (Plan.join algo ~outer ~inner, cost) :: !candidates
      in
      if t.allow_hash then consider Plan.Hash_join;
      consider Plan.Merge_join;
      if inl_possible t ~outer ~inner then consider Plan.Index_nl_join;
      if t.allow_nl then consider Plan.Nl_join;
      match !candidates with
      | [] -> None
      | first :: rest ->
          Some
            (List.fold_left
               (fun ((_, bc) as best) ((_, c) as cand) -> if c < bc then cand else best)
               first rest)
    end

  let connected_subsets graph =
    let n = QG.n_relations graph in
    let all = List.init (Bitset.full n) (fun m -> m + 1) in
    let arr = Array.of_list (List.filter (QG.is_connected graph) all) in
    Array.stable_sort
      (fun a b -> compare (Bitset.cardinal a, a) (Bitset.cardinal b, b))
      arr;
    arr

  let optimize_seeded (t : Planner.Search.t) ~seeds =
    let graph = t.env.graph in
    let n = QG.n_relations graph in
    let table : (Bitset.t, Plan.t * float) Hashtbl.t = Hashtbl.create 1024 in
    let covered =
      List.fold_left (fun acc ((p : Plan.t), _) -> Bitset.union acc p.Plan.set) 0 seeds
    in
    List.iter (fun ((p : Plan.t), cost) -> Hashtbl.add table p.Plan.set (p, cost)) seeds;
    for r = 0 to n - 1 do
      if not (Bitset.mem r covered) then
        Hashtbl.add table (Bitset.singleton r) (Planner.Search.scan_entry t r)
    done;
    Array.iter
      (fun s ->
        if Bitset.cardinal s >= 2 && not (Hashtbl.mem table s) then begin
          let best = ref None in
          Bitset.subsets_iter s (fun s1 ->
              let s2 = Bitset.diff s s1 in
              match (Hashtbl.find_opt table s1, Hashtbl.find_opt table s2) with
              | Some outer, Some inner ->
                  if not (Bitset.disjoint (QG.neighbors graph s1) s2) then begin
                    match best_join t ~outer ~inner with
                    | Some ((_, cost) as cand) -> (
                        match !best with
                        | Some (_, bc) when bc <= cost -> ()
                        | _ -> best := Some cand)
                    | None -> ()
                  end
              | _ -> ());
          Option.iter (Hashtbl.add table s) !best
        end)
      (connected_subsets graph);
    Hashtbl.find table (QG.full_set graph)
end

let same_entry (p1, c1) (p2, c2) =
  p1 = p2 && Int64.equal (Int64.bits_of_float c1) (Int64.bits_of_float c2)

let pp_entry g fmt ((p : Plan.t), c) = Format.fprintf fmt "cost %h@.%a" c (Plan.pp g) p

(* Runs [plan] on a search over [card] wrapped to record the subsets in
   the order of their first request: the entry, and that order. *)
let with_first_requests card plan =
  let seen = Hashtbl.create 64 and order = ref [] in
  let card s =
    if not (Hashtbl.mem seen s) then begin
      Hashtbl.add seen s ();
      order := s :: !order
    end;
    card s
  in
  let entry = plan card in
  (entry, List.rev !order)

let check_same what g ~oracle:(oracle, oracle_requests) ~dp:(dp, dp_requests) =
  if not (same_entry oracle dp) then
    Alcotest.failf "%s: DP differs from the oracle@.oracle: %a@.dp: %a" what (pp_entry g)
      oracle (pp_entry g) dp;
  if oracle_requests <> dp_requests then
    Alcotest.failf "%s: DP's first cardinality requests come in another order" what

(* The JOB workload at scale 0.001, bound once. Each side of a
   comparison gets fresh ANALYZE instances and fresh estimators, and
   walks the same (query, estimator, model) sequence: if the new DP
   asked for cardinalities in another first-touch order, the sampling
   estimators and the lazily sampled statistics would drift. *)
let job_fixture =
  lazy
    (let db = Support.fresh_imdb ~scale:0.001 () in
     let graphs =
       List.map
         (fun (q : Workload.Job.query) ->
           let g =
             (Sqlfront.Binder.bind_sql db ~name:q.Workload.Job.name q.Workload.Job.sql)
               .Sqlfront.Binder.graph
           in
           (q.Workload.Job.name, g, Util.Once.make (fun () -> Cardest.True_card.compute g)))
         Workload.Job.all
     in
     (db, graphs))

let estimator_names = [ "PostgreSQL"; "DBMS A"; "DBMS B"; "DBMS C"; "HyPer"; "true" ]

(* One side's entries, in visiting order, for every query in [graphs]
   under every (estimator, model, search variant). *)
let plan_side db graphs ~estimators ~models ~variants plan =
  let analyze = Dbstats.Analyze.create db in
  let coarse = Cardest.Systems.coarse_analyze db in
  List.concat_map
    (fun (name, graph, truth) ->
      List.concat_map
        (fun est_name ->
          List.concat_map
            (fun (model : Cost.Cost_model.t) ->
              List.map
                (fun (label, config, mk) ->
                  Storage.Database.set_index_config db config;
                  let est =
                    Core.Registry.find_exn Core.Registry.estimators est_name
                      { Core.Registry.db; analyze; coarse; graph; truth; feedback = None }
                  in
                  ( Printf.sprintf "%s / %s / %s / %s" name est_name model.name label,
                    graph,
                    with_first_requests est.Cardest.Estimator.subset (fun card ->
                        plan (mk ~model ~graph ~db ~card ())) ))
                variants)
            models)
        estimators)
    graphs

let compare_sides db graphs ~estimators ~models ~variants =
  let config = Storage.Database.index_config db in
  let oracle =
    plan_side db graphs ~estimators ~models ~variants (Oracle.optimize_seeded ~seeds:[])
  in
  let dp = plan_side db graphs ~estimators ~models ~variants Planner.Dp.optimize in
  Storage.Database.set_index_config db config;
  List.iter2
    (fun (what, g, oracle) (_, _, dp) -> check_same what g ~oracle ~dp)
    oracle dp

let default_variant config =
  ( "bushy",
    config,
    fun ~model ~graph ~db ~card () -> Planner.Search.create ~model ~graph ~db ~card () )

let test_oracle_job () =
  let db, graphs = Lazy.force job_fixture in
  compare_sides db graphs ~estimators:estimator_names ~models:Cost.Cost_model.all
    ~variants:[ default_variant (Storage.Database.index_config db) ]

(* Shape limits, NL joins, hash joins off, and every physical design, on
   one query per family for a few families. *)
let test_oracle_job_variants () =
  let db, graphs = Lazy.force job_fixture in
  let picked = [ "1a"; "3b"; "6f"; "13d"; "17a"; "22c"; "29a"; "33c" ] in
  let graphs = List.filter (fun (n, _, _) -> List.mem n picked) graphs in
  let variants =
    List.concat_map
      (fun config ->
        let v label ?allow_nl ?allow_hash ?shape () =
          ( Printf.sprintf "%s, %s" label (Storage.Database.index_config_to_string config),
            config,
            fun ~model ~graph ~db ~card () ->
              Planner.Search.create ?allow_nl ?allow_hash ?shape ~model ~graph ~db ~card ()
          )
        in
        [
          v "bushy" ();
          v "left-deep" ~shape:Planner.Search.Only_left_deep ();
          v "right-deep" ~shape:Planner.Search.Only_right_deep ();
          v "zig-zag" ~shape:Planner.Search.Only_zig_zag ();
          v "nl" ~allow_nl:true ();
          v "no hash" ~allow_hash:false ();
          v "nl, no hash, zig-zag" ~allow_nl:true ~allow_hash:false
            ~shape:Planner.Search.Only_zig_zag ();
        ])
      [ Storage.Database.No_indexes; Storage.Database.Pk_only; Storage.Database.Pk_fk ]
  in
  compare_sides db graphs ~estimators:[ "PostgreSQL"; "HyPer" ]
    ~models:[ Cost.Cost_model.postgres; Cost.Cost_model.cmm ] ~variants

(* The join subtrees of a plan that leave at least one relation out. *)
let proper_subtrees n (plan : Plan.t) =
  Plan.fold
    (fun acc (node : Plan.t) ->
      let size = Bitset.cardinal node.Plan.set in
      if size >= 2 && size < n then node :: acc else acc)
    [] plan
  |> List.rev

(* Random cyclic graphs, every search option, ties forced by a coarse
   cardinality function half of the time, and re-entrant enumeration
   from seed fragments cut out of the optimal plan. *)
let oracle_random =
  Support.qcheck_case ~count:80 ~name:"DP = DPsub oracle (random cyclic, seeded)"
    QCheck.(pair small_int (pair (int_range 2 7) (int_range 0 5)))
    (fun (seed, (relations, extra_edges)) ->
      let db, g = micro ~relations ~extra_edges seed in
      let prng = Util.Prng.create (seed + 1000) in
      let pick l = List.nth l (Util.Prng.int prng (List.length l)) in
      Storage.Database.set_index_config db
        (pick Storage.Database.[ No_indexes; Pk_only; Pk_fk ]);
      let tc = Cardest.True_card.compute g in
      let card =
        if Util.Prng.bool prng then Cardest.True_card.card tc
        else fun s -> float_of_int (1 + (Bitset.cardinal s mod 3))
      in
      let allow_nl = Util.Prng.bool prng and allow_hash = Util.Prng.chance prng 0.7 in
      let shape =
        pick Planner.Search.[ Any_shape; Only_left_deep; Only_right_deep; Only_zig_zag ]
      in
      let model = pick Cost.Cost_model.all in
      let run optimize =
        with_first_requests card (fun card ->
            optimize
              (Planner.Search.create ~allow_nl ~allow_hash ~shape ~model ~graph:g ~db ~card
                 ()))
      in
      let plain = run Planner.Dp.optimize in
      check_same "unseeded" g ~oracle:(run (Oracle.optimize_seeded ~seeds:[])) ~dp:plain;
      (match proper_subtrees relations (fst (fst plain)) with
      | [] -> ()
      | subtrees ->
          let first = pick subtrees in
          let seeds =
            (first, 1.5)
            :: List.filter_map
                 (fun (p : Plan.t) ->
                   if Bitset.disjoint p.Plan.set first.Plan.set && Util.Prng.bool prng then
                     Some (p, 0.25)
                   else None)
                 subtrees
          in
          let seeds =
            (* Keep the fragments pairwise disjoint. *)
            List.fold_left
              (fun acc ((p : Plan.t), c) ->
                let apart ((q : Plan.t), _) = Bitset.disjoint p.Plan.set q.Plan.set in
                if List.for_all apart acc then acc @ [ (p, c) ]
                else acc)
              [] seeds
          in
          check_same "seeded" g
            ~oracle:(run (Oracle.optimize_seeded ~seeds))
            ~dp:(run (Planner.Dp.optimize_seeded ~seeds)));
      true)

let suite =
  [
    dp_matches_brute_force;
    dp_plans_valid;
    Alcotest.test_case "shape restrictions" `Quick test_shape_restrictions_respected;
    quickpick_valid_and_dominated;
    Alcotest.test_case "quickpick best-of" `Quick test_quickpick_best_of_improves;
    Alcotest.test_case "quickpick deterministic" `Quick test_quickpick_deterministic;
    goo_valid_and_dominated;
    Alcotest.test_case "INL requires index" `Quick test_inl_requires_index;
    Alcotest.test_case "NL gating" `Quick test_nl_only_when_allowed;
    Alcotest.test_case "cheapest_algo tie preference" `Quick test_cheapest_algo_ties;
    Alcotest.test_case "DP subset table" `Quick test_dp_subsets_table;
    Alcotest.test_case "DP = DPsub oracle (JOB, 6 estimators x 3 models)" `Quick
      test_oracle_job;
    Alcotest.test_case "DP = DPsub oracle (JOB, shapes, operators, indexes)" `Quick
      test_oracle_job_variants;
    oracle_random;
  ]
