(* The re-optimization driver: execute the chosen plan bottom-up under
   the executor's checkpoint hook; whenever a materialized intermediate
   is off from its estimate by more than the q-error threshold, abandon
   the attempt, pin the materialized subtree as a plan fragment, re-plan
   the remaining joins with the feedback overlay as the estimator, and
   start over. Work spent on abandoned attempts is charged to the final
   result. Pinned fragments are paid for once, in the attempt where they
   were first materialized: the executor re-executes them on every later
   attempt (it has no tuple cache), but checkpoints fire in evaluation
   post-order, so a fragment's subtree occupies a contiguous work
   interval and the driver credits that interval back — modelling a
   system that keeps materialized intermediates around, as the paper's
   re-optimization scheme does. *)

module Bitset = Util.Bitset
module QG = Query.Query_graph

type outcome = {
  result : Exec.Executor.result;
  static_plan : Plan.t;
  final_plan : Plan.t;
  replans : int;
  wasted_work : int;
  reused_work : int;
  feedback : Feedback.t;
}

exception Replan of Bitset.t

(* Instant trace events: one per executor checkpoint the driver
   observes (a = exact rows, b = cumulative work) and one per tripped
   re-plan (a = replan ordinal, b = work wasted on the abandoned
   attempt). Disabled tracing costs one atomic load per event. *)
let ph_checkpoint = Obs.Trace.intern "reopt.checkpoint"
let ph_replan = Obs.Trace.intern "reopt.replan"

(* Checkpoints fire in evaluation post-order, one per evaluated node —
   every node except an Index_nl_join's inner scan (never evaluated on
   its own). The observer makes every node a breaker, so all of them are
   materialized but the root. *)
let rec checkpoint_count (p : Plan.t) =
  match p.Plan.op with
  | Plan.Scan _ -> 1
  | Plan.Join { algo = Plan.Index_nl_join; outer; inner = _ } ->
      1 + checkpoint_count outer
  | Plan.Join { outer; inner; _ } ->
      1 + checkpoint_count outer + checkpoint_count inner

(* Plan node sets form a laminar family, so the violating set names a
   unique subtree. *)
let rec subtree_with_set (p : Plan.t) set =
  if Bitset.equal p.Plan.set set then Some p
  else
    match p.Plan.op with
    | Plan.Scan _ -> None
    | Plan.Join { outer; inner; _ } -> (
        match subtree_with_set outer set with
        | Some _ as r -> r
        | None -> subtree_with_set inner set)

let run ~db ~graph ~config ~model ~(estimator : Cardest.Estimator.t)
    ?(threshold = 2.0) ?(max_replans = 8) ?plan0 ?pool ?(projections = []) () =
  if threshold < 1.0 then
    invalid_arg "Reopt.Driver.run: threshold must be >= 1.0";
  if max_replans < 0 then
    invalid_arg "Reopt.Driver.run: max_replans must be >= 0";
  let full = QG.full_set graph in
  let allow_nl = config.Exec.Engine_config.allow_nl_join in
  let search card = Planner.Search.create ~allow_nl ~model ~graph ~db ~card () in
  let fb = Feedback.create () in
  let static_plan =
    match plan0 with
    | Some p -> p
    | None ->
        fst (Planner.Dp.optimize (search estimator.Cardest.Estimator.subset))
  in
  Verify.ensure_plan
    ~what:(QG.name graph ^ "/reopt-static")
    graph static_plan;
  let wasted = ref 0 in
  let reused_total = ref 0 in
  let replans = ref 0 in
  (* Pairwise-disjoint executed subtrees, seeded into every re-planning
     DP at sunk cost. *)
  let fragments = ref [] in
  let rec attempt plan (est : Cardest.Estimator.t) =
    (* Checkpoint work values of this attempt in firing (post-order)
       sequence, most recent first; [0] is the pre-execution mark. When
       a pinned fragment's root checkpoint fires, its subtree's k
       checkpoints are the k most recent ones, so the work value k
       entries back marks the subtree's entry — the interval in between
       is a re-execution of already-paid-for work, credited back. *)
    let works = ref [ 0 ] in
    let reused = ref 0 in
    let frag_checkpoints =
      List.map
        (fun ((p : Plan.t), _) -> (p.Plan.set, checkpoint_count p))
        !fragments
    in
    let observe set ~rows ~work =
      Obs.Trace.event ph_checkpoint ~a:rows ~b:work;
      Feedback.record fb set ~rows;
      (match List.assoc_opt set frag_checkpoints with
      | Some k -> reused := !reused + work - List.nth !works (k - 1)
      | None -> ());
      works := work :: !works;
      (* Check join checkpoints only: a scan's cardinality becomes
         feedback but re-planning before the first join has nothing to
         pin, and the full set has nothing left to re-plan. [est] is the
         estimator that chose the running plan; every subgraph observed
         before this plan was chosen is exact in it (q = 1), so each
         distinct subgraph can trip at most one re-plan — the loop
         terminates even without the [max_replans] cap. *)
      if
        !replans < max_replans
        && Bitset.cardinal set >= 2
        && not (Bitset.equal set full)
      then begin
        let estimate = est.Cardest.Estimator.subset set in
        let q =
          Util.Stat.q_error
            ~estimate:(Util.Stat.floored estimate)
            ~truth:(Util.Stat.floored (float_of_int rows))
        in
        if q > threshold then begin
          wasted := !wasted + work - !reused;
          reused_total := !reused_total + !reused;
          raise (Replan set)
        end
      end
    in
    match
      Exec.Executor.run ~db ~graph ~config
        ~size_est:est.Cardest.Estimator.subset ~observe ?pool ~projections plan
    with
    | result ->
        (* A timed-out attempt's work is already capped at the limit —
           a floor, not a measurement — so the credit only applies to
           runs that finished. *)
        if not result.Exec.Executor.timed_out then
          reused_total := !reused_total + !reused
        else reused := 0;
        (result, plan, !reused)
    | exception Replan set ->
        incr replans;
        Obs.Trace.event ph_replan ~a:!replans ~b:!wasted;
        let fragment =
          match subtree_with_set plan set with
          | Some p -> p
          | None -> assert false
        in
        (* The new fragment may contain previously pinned ones (seeds
           appear atomically in re-planned trees); keep only the
           disjoint survivors. *)
        fragments :=
          (fragment, 0.0)
          :: List.filter
               (fun ((p : Plan.t), _) -> Bitset.disjoint p.Plan.set set)
               !fragments;
        let est' = Feedback.overlay ~fallback:estimator fb in
        let plan', _ =
          Planner.Dp.optimize_seeded
            (search est'.Cardest.Estimator.subset)
            ~seeds:!fragments
        in
        (* Every re-planned fragment goes through the sanitizer before it
           can execute, like any other enumerator output. *)
        Verify.ensure_plan
          ~what:(Printf.sprintf "%s/reopt-%d" (QG.name graph) !replans)
          graph plan';
        attempt plan' est'
  in
  let result, final_plan, final_reused = attempt static_plan estimator in
  let work = result.Exec.Executor.work - final_reused + !wasted in
  let result =
    {
      result with
      Exec.Executor.work;
      runtime_ms = float_of_int work /. Exec.Engine_config.work_units_per_ms;
    }
  in
  {
    result;
    static_plan;
    final_plan;
    replans = !replans;
    wasted_work = !wasted;
    reused_work = !reused_total;
    feedback = fb;
  }
