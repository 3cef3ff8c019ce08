(* The observability subsystem: histogram merge laws and the shared
   quantile math (the regression pin for the Serve.Report dedup), the
   metrics registry's find-or-create and typing contract, the trace
   buffers' exactly-once flush under concurrent recording, the disabled
   path's zero allocation, and the end-to-end guarantee that tracing
   never changes results — the golden workload runs byte-identical with
   recording on and off, at a bounded number of spans per plan node. *)

let span_list () = fst (Obs.Trace.flush ())

(* --- histograms ------------------------------------------------------- *)

let hist_of xs =
  let h = Obs.Histogram.create () in
  List.iter (Obs.Histogram.observe h) xs;
  h

let hist_equal a b =
  Obs.Histogram.count a = Obs.Histogram.count b
  && Obs.Histogram.sum a = Obs.Histogram.sum b
  && Obs.Histogram.buckets a = Obs.Histogram.buckets b

let small_nat_list = QCheck.(list (int_bound 1_000_000))

let merge_law_tests =
  let open Obs.Histogram in
  [
    Support.qcheck_case ~count:100 ~name:"merge is associative"
      QCheck.(triple small_nat_list small_nat_list small_nat_list)
      (fun (xs, ys, zs) ->
        let a = hist_of xs and b = hist_of ys and c = hist_of zs in
        hist_equal (merge (merge a b) c) (merge a (merge b c)));
    Support.qcheck_case ~count:100 ~name:"merge is order-independent"
      QCheck.(pair small_nat_list small_nat_list)
      (fun (xs, ys) ->
        let a = hist_of xs and b = hist_of ys in
        hist_equal (merge a b) (merge b a));
    Support.qcheck_case ~count:100 ~name:"merge preserves counts and sums"
      QCheck.(pair small_nat_list small_nat_list)
      (fun (xs, ys) ->
        let a = hist_of xs and b = hist_of ys in
        let m = merge a b in
        count m = count a + count b
        && sum m = sum a + sum b
        && merge a b != a);
    Support.qcheck_case ~count:100 ~name:"merge does not mutate its inputs"
      QCheck.(pair small_nat_list small_nat_list)
      (fun (xs, ys) ->
        let a = hist_of xs and b = hist_of ys in
        let before = (buckets a, buckets b) in
        ignore (merge a b);
        before = (buckets a, buckets b));
  ]

let test_bucket_shape () =
  let h = hist_of [ 0; 1; 2; 3; 4; 7; 8 ] in
  let b = Obs.Histogram.buckets h in
  (* value 0 -> bucket 0; 1 -> bucket 1; 2,3 -> bucket 2; 4..7 ->
     bucket 3; 8 -> bucket 4. *)
  Alcotest.(check (list int)) "log2 bucket placement" [ 1; 1; 2; 2; 1 ]
    (Array.to_list (Array.sub b 0 5));
  Alcotest.(check int) "count" 7 (Obs.Histogram.count h);
  Alcotest.(check int) "sum" 25 (Obs.Histogram.sum h);
  Alcotest.(check int) "bucket 0 lower" 0 (Obs.Histogram.bucket_lower 0);
  Alcotest.(check int) "bucket 4 lower" 8 (Obs.Histogram.bucket_lower 4)

let test_approx_quantile () =
  let h = hist_of (List.init 100 (fun i -> i + 1)) in
  (* The p50 observation is 50, whose bucket [32, 63] resolves to its
     upper bound. *)
  Alcotest.(check int) "p50 bucket upper bound" 63
    (Obs.Histogram.approx_quantile h 0.5);
  Alcotest.(check int) "empty histogram" 0
    (Obs.Histogram.approx_quantile (Obs.Histogram.create ()) 0.5)

(* --- the exact quantiles ----------------------------------------------- *)

let test_percentile_pinned () =
  (* Pinned against the nearest-rank implementation that used to live
     in Serve.Report: rank = ceil (q * n) over the sorted sample. *)
  let sample = [| 5.0; 1.0; 4.0; 2.0; 3.0 |] in
  Alcotest.(check (float 0.0)) "p50 of 5" 3.0
    (Obs.Histogram.percentile sample 0.50);
  Alcotest.(check (float 0.0)) "p95 of 5" 5.0
    (Obs.Histogram.percentile sample 0.95);
  Alcotest.(check (float 0.0)) "p99 of 5" 5.0
    (Obs.Histogram.percentile sample 0.99);
  let even = [| 4.0; 1.0; 3.0; 2.0 |] in
  Alcotest.(check (float 0.0)) "p50 of even n (nearest rank)" 2.0
    (Obs.Histogram.percentile even 0.50);
  (* percentile must not reorder the caller's array. *)
  Alcotest.(check (array (float 0.0))) "input array untouched"
    [| 5.0; 1.0; 4.0; 2.0; 3.0 |] sample

let percentile_reference_test =
  (* The exact formula Serve.Report shipped before the dedup, kept here
     as the regression oracle. *)
  let reference sample q =
    let n = Array.length sample in
    if n = 0 then 0.0
    else begin
      let sorted = Array.copy sample in
      Array.sort compare sorted;
      let rank = int_of_float (ceil (q *. float_of_int n)) in
      sorted.(max 0 (min (n - 1) (rank - 1)))
    end
  in
  Support.qcheck_case ~count:200 ~name:"percentile matches the old report math"
    QCheck.(pair (list (int_bound 1_000_000)) (int_bound 100))
    (fun (xs, pct) ->
      let sample = Array.of_list (List.map float_of_int xs) in
      let q = float_of_int pct /. 100.0 in
      Obs.Histogram.percentile sample q = reference sample q)

(* --- metrics registry ------------------------------------------------- *)

let test_registry () =
  let c = Obs.Metrics.counter "test_obs.c" in
  Obs.Metrics.Counter.reset c;
  Obs.Metrics.Counter.incr c;
  Obs.Metrics.Counter.add c 4;
  Alcotest.(check int) "counter accumulates" 5 (Obs.Metrics.Counter.value c);
  Alcotest.(check int) "same name, same cell" 5
    (Obs.Metrics.Counter.value (Obs.Metrics.counter "test_obs.c"));
  Alcotest.(check bool) "kind mismatch raises" true
    (try
       ignore (Obs.Metrics.gauge "test_obs.c");
       false
     with Invalid_argument _ -> true);
  let g = Obs.Metrics.gauge "test_obs.g" in
  Obs.Metrics.Gauge.reset g;
  Obs.Metrics.Gauge.set_max g 3.0;
  Obs.Metrics.Gauge.set_max g 1.0;
  Alcotest.(check (float 0.0)) "set_max keeps the high-water mark" 3.0
    (Obs.Metrics.Gauge.value g);
  let h = Obs.Metrics.histogram "test_obs.h" in
  Obs.Metrics.Hist.reset h;
  Obs.Metrics.Hist.observe h 10;
  Obs.Metrics.Hist.observe h 20;
  Alcotest.(check int) "hist snapshot counts" 2
    (Obs.Histogram.count (Obs.Metrics.Hist.snapshot h));
  let dump = Obs.Metrics.dump () in
  let names = List.map fst dump in
  Alcotest.(check bool) "dump contains the cells" true
    (List.mem "test_obs.c" names && List.mem "test_obs.g" names
    && List.mem "test_obs.h" names);
  Alcotest.(check bool) "dump sorted by name" true
    (names = List.sort compare names);
  (* The telemetry migrations register their cells at module init:
     spot-check a few canonical names are present. *)
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " registered") true (List.mem n names))
    [
      "exec.morsel.phases"; "exec.join_table.tables"; "exec.join_cache.hits";
      "core.pipeline.plan_hits"; "serve.admission.waits"; "serve.request_us";
    ]

(* --- trace spans ------------------------------------------------------ *)

let test_trace_disabled () =
  Obs.Trace.set_enabled false;
  Obs.Trace.clear ();
  Alcotest.(check int) "start returns the sentinel" 0 (Obs.Trace.start ());
  Obs.Trace.span (Obs.Trace.intern "test_obs.x") ~t0:(Obs.Trace.start ()) ~a:1
    ~b:2;
  Obs.Trace.event (Obs.Trace.intern "test_obs.x") ~a:1 ~b:2;
  Alcotest.(check (list unit)) "nothing recorded" []
    (List.map ignore (span_list ()))

(* The instrumentation is permanent, so the disabled path must cost no
   more than a flag test. It allocates nothing: a million start, span
   and event calls leave the minor heap untouched. Together with the
   spans-per-node bound in "tracing never changes results", this keeps
   disabled tracing far below 1 % of a query's wall time, since no site
   runs per row or per morsel. *)
let test_trace_disabled_allocates_nothing () =
  Obs.Trace.set_enabled false;
  let ph = Obs.Trace.intern "test_obs.disabled" in
  let before = Gc.minor_words () in
  for i = 1 to 1_000_000 do
    let t0 = Obs.Trace.start () in
    Obs.Trace.span ph ~t0 ~a:i ~b:i;
    Obs.Trace.event ph ~a:i ~b:i
  done;
  let after = Gc.minor_words () in
  Alcotest.(check (float 0.0)) "minor words allocated" 0.0 (after -. before)

let test_trace_nesting () =
  Obs.Trace.set_enabled true;
  Obs.Trace.clear ();
  let ph_outer = Obs.Trace.intern "test_obs.outer" in
  let ph_inner = Obs.Trace.intern "test_obs.inner" in
  (* The wall clock ticks in microseconds; spin past a tick so the two
     starts are distinguishable. *)
  let spin () =
    let t = Obs.Trace.now_ns () in
    while Obs.Trace.now_ns () - t < 5_000 do () done
  in
  let t_outer = Obs.Trace.start () in
  spin ();
  let t_inner = Obs.Trace.start () in
  spin ();
  Obs.Trace.span ph_inner ~t0:t_inner ~a:0 ~b:0;
  spin ();
  Obs.Trace.span ph_outer ~t0:t_outer ~a:0 ~b:0;
  Obs.Trace.set_enabled false;
  match span_list () with
  | [ a; b ] ->
      (* Deterministic order: ascending start time — the outer span
         started first even though it recorded last, and its interval
         contains the inner one. *)
      Alcotest.(check string) "outer first" "test_obs.outer"
        a.Obs.Trace.sp_phase;
      Alcotest.(check string) "inner second" "test_obs.inner"
        b.Obs.Trace.sp_phase;
      Alcotest.(check bool) "outer contains inner" true
        (a.Obs.Trace.sp_start_ns <= b.Obs.Trace.sp_start_ns
        && a.Obs.Trace.sp_start_ns + a.Obs.Trace.sp_dur_ns
           >= b.Obs.Trace.sp_start_ns + b.Obs.Trace.sp_dur_ns)
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans)

let test_trace_exactly_once_concurrent () =
  (* Four domains (the pool's workers plus the caller) each record a
     distinct set of payloads; one flush must surface every span exactly
     once, and the next flush must be empty. *)
  let domains = 4 and per_domain = 500 in
  let pool = Util.Domain_pool.create ~domains in
  Fun.protect
    ~finally:(fun () -> Util.Domain_pool.shutdown pool)
    (fun () ->
      Obs.Trace.set_enabled true;
      Obs.Trace.clear ();
      let ph = Obs.Trace.intern "test_obs.worker" in
      Util.Domain_pool.run_workers pool (fun slot ->
          for i = 0 to per_domain - 1 do
            let t0 = Obs.Trace.start () in
            Obs.Trace.span ph ~t0 ~a:((slot * per_domain) + i) ~b:slot
          done);
      Obs.Trace.set_enabled false;
      let spans, dropped = Obs.Trace.flush () in
      Alcotest.(check int) "no overwrites" 0 dropped;
      Alcotest.(check int) "every span surfaced" (domains * per_domain)
        (List.length spans);
      let seen = Hashtbl.create 4096 in
      List.iter
        (fun (s : Obs.Trace.sp) ->
          Alcotest.(check bool) "payload surfaced once" false
            (Hashtbl.mem seen s.Obs.Trace.sp_a);
          Hashtbl.replace seen s.Obs.Trace.sp_a ())
        spans;
      for p = 0 to (domains * per_domain) - 1 do
        if not (Hashtbl.mem seen p) then
          Alcotest.failf "payload %d never surfaced" p
      done;
      Alcotest.(check int) "second flush is empty" 0
        (List.length (span_list ())))

(* --- export ----------------------------------------------------------- *)

let test_export_shape () =
  Obs.Trace.set_enabled true;
  Obs.Trace.clear ();
  let ph = Obs.Trace.intern "exec" in
  let t0 = Obs.Trace.start () in
  Obs.Trace.span ph ~t0 ~a:7 ~b:9;
  Obs.Trace.set_enabled false;
  let spans, dropped = Obs.Trace.flush () in
  let totals = Obs.Export.phase_totals spans in
  Alcotest.(check int) "one phase" 1 (List.length totals);
  let t = List.hd totals in
  Alcotest.(check string) "phase name" "exec" t.Obs.Export.pt_phase;
  Alcotest.(check int) "span count" 1 t.Obs.Export.pt_spans;
  let doc = Obs.Export.trace_json ~query:"1a" ~wall_ms:1.0 ~spans ~dropped () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("document mentions " ^ needle) true
        (let n = String.length needle and m = String.length doc in
         let rec at i =
           i + n <= m && (String.sub doc i n = needle || at (i + 1))
         in
         at 0))
    [
      "\"version\""; "\"query\": \"1a\""; "\"span_count\": 1"; "\"phases\"";
      "\"spans\""; "\"metrics\""; "\"coverage\"";
    ]

(* --- tracing never changes results ------------------------------------ *)

let test_golden_workload_identity () =
  (* The whole workload, once with recording off and once with it on,
     in fresh sessions: every query's rows, simulated work, and result
     values must be byte-identical. Every span, from binding and
     planning as well as execution, counts toward the untraced run's
     required zero. The spans each execution records are counted against
     its plan's nodes: at most two per node (about 1.1 today) means
     recording is per operator, never per row or morsel. *)
  let fingerprint ~traced =
    let s = Core.Session.create ~seed:3 ~scale:0.0006 () in
    Obs.Trace.set_enabled traced;
    Obs.Trace.clear ();
    let per_query =
      List.map
        (fun (jq : Workload.Job.query) ->
          let name = jq.Workload.Job.name in
          let q = Core.Session.job s name in
          let choice = Core.Session.optimize s q in
          let pre = List.length (span_list ()) in
          let r = Core.Session.run s q choice in
          let spans = List.length (span_list ()) in
          let nodes = Plan.fold (fun n _ -> n + 1) 0 choice.Core.Session.plan in
          if spans > 2 * nodes then
            Alcotest.failf "query %s: %d spans for %d plan nodes" name spans
              nodes;
          ( ( name,
              r.Exec.Executor.rows,
              r.Exec.Executor.work,
              List.map Storage.Value.to_string r.Exec.Executor.mins ),
            pre + spans ))
        Workload.Job.all
    in
    Obs.Trace.set_enabled false;
    let fp, spans = List.split per_query in
    (fp, List.fold_left ( + ) 0 spans)
  in
  let off, off_spans = fingerprint ~traced:false in
  let on, on_spans = fingerprint ~traced:true in
  Alcotest.(check int) "untraced run recorded nothing" 0 off_spans;
  Alcotest.(check bool) "traced run recorded spans" true
    (on_spans > Workload.Job.query_count);
  if off <> on then
    List.iter2
      (fun (n, r1, w1, m1) (_, r2, w2, m2) ->
        if (r1, w1, m1) <> (r2, w2, m2) then
          Alcotest.failf "query %s diverged under tracing" n)
      off on

(* --- executor spans under pipelines ------------------------------------ *)

(* Each query runs traced with no observer (probe sides pipelined), then
   again with one (every node materialized). Every evaluated node must
   record an exec.* span carrying the rows its checkpoint reports; the
   nodes fused below a pipeline's top record instants, so a pipeline's
   wall time goes to one span. *)
let test_exec_spans_match_checkpoints () =
  let s = Core.Session.create ~seed:3 ~scale:0.0006 () in
  List.iter
    (fun name ->
      let q = Core.Session.job s name in
      let choice = Core.Session.optimize s q in
      let plan = choice.Core.Session.plan in
      let run ?observe () =
        Exec.Executor.run ~db:(Core.Session.db s) ~graph:q.Core.Session.graph
          ~config:Exec.Engine_config.robust
          ~size_est:choice.Core.Session.estimator.Cardest.Estimator.subset
          ?observe ~projections:q.Core.Session.projections plan
      in
      let phase_of set =
        Plan.fold
          (fun acc (n : Plan.t) ->
            if Util.Bitset.equal n.Plan.set set then
              match n.Plan.op with
              | Plan.Scan _ -> "exec.scan"
              | Plan.Join { algo = Plan.Hash_join; _ } -> "exec.hash_join"
              | Plan.Join { algo = Plan.Merge_join; _ } -> "exec.merge_join"
              | Plan.Join { algo = Plan.Nl_join; _ } -> "exec.nl_join"
              | Plan.Join { algo = Plan.Index_nl_join; _ } ->
                  "exec.index_nl_join"
            else acc)
          "?" plan
      in
      (* Fused: the probe input of a hash, NL or index-NL join, unless
         it is a merge join (whose output is always stored). *)
      let probes (n : Plan.t) =
        match n.Plan.op with
        | Plan.Join { algo = Plan.Merge_join; _ } -> None
        | Plan.Join { outer; _ } -> Some outer
        | Plan.Scan _ -> None
      in
      let fused =
        Plan.fold
          (fun acc n ->
            match probes n with
            | Some o when Option.is_some (probes o) -> acc + 1
            | Some { Plan.op = Plan.Scan _; _ } -> acc + 1
            | _ -> acc)
          0 plan
      in
      Obs.Trace.set_enabled true;
      Obs.Trace.clear ();
      let r = run () in
      Obs.Trace.set_enabled false;
      let spans = span_list () in
      let nodes =
        List.filter
          (fun (sp : Obs.Trace.sp) ->
            String.starts_with ~prefix:"exec." sp.Obs.Trace.sp_phase)
          spans
      in
      let checkpoints = ref [] in
      ignore
        (run
           ~observe:(fun set ~rows ~work:_ ->
             checkpoints := (phase_of set, rows) :: !checkpoints)
           ());
      Alcotest.(check (list (pair string int)))
        (name ^ ": span rows = checkpoint rows")
        (List.sort compare !checkpoints)
        (List.sort compare
           (List.map
              (fun (sp : Obs.Trace.sp) -> (sp.Obs.Trace.sp_phase, sp.Obs.Trace.sp_a))
              nodes));
      let instants =
        List.length
          (List.filter (fun (sp : Obs.Trace.sp) -> sp.Obs.Trace.sp_dur_ns = 0) nodes)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d fused nodes record instants (%d)" name fused
           instants)
        true (instants >= fused);
      match List.filter (fun (sp : Obs.Trace.sp) -> sp.Obs.Trace.sp_phase = "exec") spans with
      | [ top ] ->
          Alcotest.(check (pair int int)) (name ^ ": exec span = result")
            (r.Exec.Executor.rows, r.Exec.Executor.work)
            (top.Obs.Trace.sp_a, top.Obs.Trace.sp_b)
      | l -> Alcotest.failf "%s: %d exec spans" name (List.length l))
    [ "1a"; "13d"; "16a"; "17a"; "25c"; "33c" ]

let suite =
  merge_law_tests
  @ [ percentile_reference_test ]
  @ [
      Alcotest.test_case "bucket shape" `Quick test_bucket_shape;
      Alcotest.test_case "approx quantile" `Quick test_approx_quantile;
      Alcotest.test_case "exact quantiles pinned" `Quick test_percentile_pinned;
      Alcotest.test_case "metrics registry" `Quick test_registry;
      Alcotest.test_case "trace disabled is silent" `Quick test_trace_disabled;
      Alcotest.test_case "trace spans nest" `Quick test_trace_nesting;
      Alcotest.test_case "exactly-once flush under 4 domains" `Quick
        test_trace_exactly_once_concurrent;
      Alcotest.test_case "export shape" `Quick test_export_shape;
      Alcotest.test_case "exec spans carry checkpoint rows" `Quick
        test_exec_spans_match_checkpoints;
      Alcotest.test_case "tracing never changes results" `Slow
        test_golden_workload_identity;
      Alcotest.test_case "disabled tracing allocates nothing" `Quick
        test_trace_disabled_allocates_nothing;
    ]
