(* Mid-query re-optimization (Perron et al., PAPERS.md): execute every
   benchmark query with execution-time cardinality checkpoints enabled,
   once with re-planning off and once with it on, under each of the five
   emulated estimators — plus the Simpli-Squared no-estimates baseline —
   and bucket the slowdowns against the true-cardinality optimum.

   Both arms run through [Reopt.Driver]: the off arm with
   [max_replans = 0] (checkpoints observed, never acted on), the on arm
   with the default budget. The executor is exact, so the two arms must
   return identical rows and aggregates — the experiment enforces that
   on every comparable execution. *)

module Bitset = Util.Bitset

(* domlint: safe [R1] — constant bucket edges, never written *)
let buckets = [| 0.9; 1.1; 2.0; 10.0; 100.0 |]

let bucket_labels =
  [ "<0.9"; "[0.9,1.1)"; "[1.1,2)"; "[2,10)"; "[10,100)"; ">100" ]

(* Q-error threshold that trips a re-plan; `jobench experiment
   --reopt-threshold` overrides (same pattern as Harness.debug_verify). *)
let threshold = Atomic.make 2.0

let engine = Exec.Engine_config.default_9_4

let model = Cost.Cost_model.postgres

let simpli_label = "Simpli-Squared (no estimates)"

(* One executed arm of one (query, system) cell. *)
type arm = {
  slow : float;  (* runtime / true-optimum runtime *)
  ms : float;
  rows : int;
  mins : Storage.Value.t list;
  timed_out : bool;
  replans : int;
}

(* Per-system aggregate over the workload. *)
type summary = {
  system : string;
  off_slows : float array;
  on_slows : float array;
  replans : int;
  replanned_queries : int;
  off_ms : float;
  on_ms : float;
  comparable : int;  (* executions where neither arm timed out *)
  best_query : string;  (* biggest off/on normalized-cost ratio *)
  best_off : float;
  best_on : float;
}

let arm_of_outcome ~base_ms (o : Reopt.Driver.outcome) =
  let r = o.Reopt.Driver.result in
  {
    slow = r.Exec.Executor.runtime_ms /. base_ms;
    ms = r.Exec.Executor.runtime_ms;
    rows = r.Exec.Executor.rows;
    mins = r.Exec.Executor.mins;
    timed_out = r.Exec.Executor.timed_out;
    replans = o.Reopt.Driver.replans;
  }

(* Every system's off/on pair for one query; baseline executed once and
   shared. The Simpli-Squared arm plans its join order from raw table
   sizes (PostgreSQL estimates still size hash tables and cost the
   physical operators, as in the original setup). *)
let measure_query (h : Harness.t) (q : Harness.qctx) =
  let allow_nl = engine.Exec.Engine_config.allow_nl_join in
  let oracle = Harness.estimator h q "true" in
  let optimal_plan, _ = Harness.plan_with h q ~est:oracle ~model ~allow_nl () in
  let baseline =
    Harness.execute h q ~plan:optimal_plan
      ~size_est:oracle.Cardest.Estimator.subset ~engine
  in
  let base_ms = Float.max 0.001 baseline.Exec.Executor.runtime_ms in
  let cell system enumerator =
    let est = Harness.estimator h q system in
    let plan0, _ = Harness.plan_with h q ~est ~model ?enumerator ~allow_nl () in
    let drive max_replans =
      Reopt.Driver.run ~db:h.Harness.db ~graph:q.Harness.graph ~config:engine
        ~model ~estimator:est ~threshold:(Atomic.get threshold) ~max_replans
        ~plan0 ?pool:(Harness.exec_pool h)
        ~projections:q.Harness.projections ()
    in
    (arm_of_outcome ~base_ms (drive 0), arm_of_outcome ~base_ms (drive 8))
  in
  List.map (fun s -> (s, cell s None)) Cardest.Systems.names
  @ [ (simpli_label, cell "PostgreSQL" (Some Core.Registry.Simpli_squared)) ]

let summarize queries cells system =
  let off = ref [] and on = ref [] in
  let replans = ref 0 and replanned = ref 0 in
  let off_ms = ref 0.0 and on_ms = ref 0.0 in
  let comparable = ref 0 in
  let best = ref None in
  Array.iteri
    (fun i per_system ->
      let name = (queries.(i) : Harness.qctx).Harness.query.Workload.Job.name in
      let a_off, a_on = List.assoc system per_system in
      off := a_off.slow :: !off;
      on := a_on.slow :: !on;
      replans := !replans + a_on.replans;
      if a_on.replans > 0 then incr replanned;
      off_ms := !off_ms +. a_off.ms;
      on_ms := !on_ms +. a_on.ms;
      if not (a_off.timed_out || a_on.timed_out) then begin
        incr comparable;
        if a_off.rows <> a_on.rows || a_off.mins <> a_on.mins then
          failwith
            (Printf.sprintf
               "exp_reopt: %s/%s returned different results with \
                re-optimization on (%d rows) vs off (%d rows)"
               name system a_on.rows a_off.rows);
        let ratio = a_off.slow /. Float.max 1e-9 a_on.slow in
        match !best with
        | Some (_, _, _, r) when r >= ratio -> ()
        | _ -> best := Some (name, a_off.slow, a_on.slow, ratio)
      end)
    cells;
  let best_query, best_off, best_on =
    match !best with
    | Some (n, o, a, _) -> (n, o, a)
    | None -> ("-", nan, nan)
  in
  {
    system;
    off_slows = Array.of_list (List.rev !off);
    on_slows = Array.of_list (List.rev !on);
    replans = !replans;
    replanned_queries = !replanned;
    off_ms = !off_ms;
    on_ms = !on_ms;
    comparable = !comparable;
    best_query;
    best_off;
    best_on;
  }

let fractions values =
  let counts =
    Util.Stat.bucketize ~edges:buckets
      (Array.map (fun v -> if v = infinity then 1e9 else v) values)
  in
  Array.to_list
    (Array.map (fun c -> Util.Stat.fraction c (Array.length values)) counts)

let measure h =
  Harness.with_index_config h Storage.Database.Pk_only (fun () ->
      let cells = Harness.par_map h (measure_query h) h.Harness.queries in
      List.map
        (summarize h.Harness.queries cells)
        (Cardest.Systems.names @ [ simpli_label ]))

(* Threshold sweep: how sensitive is the recovery to the trip point?
   PostgreSQL estimates, every other query (two executions per query per
   threshold keep the sweep affordable). *)
let sweep h =
  let thresholds = [ 1.5; 2.0; 5.0; 10.0 ] in
  let queries =
    Array.of_list
      (Array.to_list h.Harness.queries |> List.filteri (fun i _ -> i mod 2 = 0))
  in
  Harness.with_index_config h Storage.Database.Pk_only (fun () ->
      let allow_nl = engine.Exec.Engine_config.allow_nl_join in
      let per_query =
        Harness.par_map h
          (fun (q : Harness.qctx) ->
            let oracle = Harness.estimator h q "true" in
            let optimal_plan, _ =
              Harness.plan_with h q ~est:oracle ~model ~allow_nl ()
            in
            let baseline =
              Harness.execute h q ~plan:optimal_plan
                ~size_est:oracle.Cardest.Estimator.subset ~engine
            in
            let base_ms = Float.max 0.001 baseline.Exec.Executor.runtime_ms in
            let est = Harness.estimator h q "PostgreSQL" in
            let plan0, _ = Harness.plan_with h q ~est ~model ~allow_nl () in
            List.map
              (fun t ->
                let o =
                  Reopt.Driver.run ~db:h.Harness.db ~graph:q.Harness.graph
                    ~config:engine ~model ~estimator:est ~threshold:t
                    ~plan0 ?pool:(Harness.exec_pool h)
                    ~projections:q.Harness.projections ()
                in
                ( o.Reopt.Driver.result.Exec.Executor.runtime_ms /. base_ms,
                  o.Reopt.Driver.replans ))
              thresholds)
          queries
      in
      Util.Render.table
        ~title:
          "Threshold sweep (PostgreSQL estimates, every other query): median \
           slowdown\nand re-plan volume per q-error trip point"
        ~header:[ "threshold"; "median slowdown"; "re-plans"; "queries re-planned" ]
        (List.mapi
           (fun ti t ->
             let slows =
               Array.map (fun per_t -> fst (List.nth per_t ti)) per_query
             in
             let replans =
               Array.fold_left
                 (fun acc per_t -> acc + snd (List.nth per_t ti))
                 0 per_query
             in
             let replanned =
               Array.fold_left
                 (fun acc per_t ->
                   if snd (List.nth per_t ti) > 0 then acc + 1 else acc)
                 0 per_query
             in
             [
               Printf.sprintf "%g" t;
               Util.Render.float_cell (Util.Stat.median slows);
               string_of_int replans;
               string_of_int replanned;
             ])
           thresholds))

let render h =
  let summaries = measure h in
  let main =
    Util.Render.table
      ~title:
        (Printf.sprintf
           "Re-optimization: slowdown vs the true-cardinality optimum with \
            execution-time\n\
            cardinality feedback off/on (q-error threshold %g, PK indexes, \
            stock engine)"
           (Atomic.get threshold))
      ~header:("system" :: "reopt" :: bucket_labels)
      (List.concat_map
         (fun s ->
           [
             (s.system :: "off"
             :: List.map Util.Render.percent_cell (fractions s.off_slows));
             (s.system :: "on"
             :: List.map Util.Render.percent_cell (fractions s.on_slows));
           ])
         summaries)
  in
  let detail =
    Util.Render.table
      ~title:"Re-plan counts and runtime totals (simulated ms)"
      ~header:
        [
          "system"; "re-plans"; "queries re-planned"; "off total";
          "on total"; "median off"; "median on";
        ]
      (List.map
         (fun s ->
           [
             s.system;
             string_of_int s.replans;
             string_of_int s.replanned_queries;
             Util.Render.float_cell s.off_ms;
             Util.Render.float_cell s.on_ms;
             Util.Render.float_cell (Util.Stat.median s.off_slows);
             Util.Render.float_cell (Util.Stat.median s.on_slows);
           ])
         summaries)
  in
  let identical =
    let n =
      List.fold_left (fun acc s -> acc + s.comparable) 0 summaries
    in
    Printf.sprintf
      "query results identical with re-optimization on vs off: %d/%d \
       comparable executions"
      n n
  in
  let pg = List.find (fun s -> s.system = "PostgreSQL") summaries in
  let highlight =
    if Float.is_nan pg.best_off || pg.best_off <= pg.best_on then
      "re-planning reduced no PostgreSQL-estimated query's normalized cost"
    else
      Printf.sprintf
        "largest PostgreSQL gain: query %s, normalized cost %s -> %s \
         (%.1fx better)"
        pg.best_query
        (Util.Render.float_cell pg.best_off)
        (Util.Render.float_cell pg.best_on)
        (pg.best_off /. Float.max 1e-9 pg.best_on)
  in
  main ^ "\n" ^ detail ^ "\n" ^ identical ^ "\n" ^ highlight ^ "\n\n"
  ^ sweep h
