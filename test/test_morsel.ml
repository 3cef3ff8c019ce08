(* The morsel scheduler and the executor's intra-query parallelism:
   QCheck laws for the work-stealing cursor (every morsel claimed
   exactly once, no claim after exhaustion, under concurrent
   claimants), accumulator semantics, and the end-to-end determinism
   guarantee — the full 113-query workload byte-identical at
   exec-jobs 1/2/4, work and row
   budgets tripping inside pool phases with the no-pool result and
   without wedging the pool, and the re-optimization driver's whole
   trajectory unchanged by a pool. *)

module Morsel = Exec.Morsel

let with_pool domains f =
  let pool = Util.Domain_pool.create ~domains in
  Fun.protect
    ~finally:(fun () -> Util.Domain_pool.shutdown pool)
    (fun () -> f pool)

(* --- cursor laws ----------------------------------------------------- *)

(* 3 worker domains + the calling domain = 4 concurrent claimants, each
   draining the cursor as fast as it can. The union of the per-slot
   claims must be exactly [0 .. n-1] with no duplicates, and the cursor
   must stay exhausted afterwards. Slots are claimed dynamically but
   each runs exactly once, so the per-slot lists need no locking. *)
let cursor_claims_each_exactly_once n =
  with_pool 4 (fun pool ->
      let c = Morsel.cursor n in
      let per_slot = Array.make 4 [] in
      Util.Domain_pool.run_workers pool (fun slot ->
          let rec loop () =
            match Morsel.claim c with
            | -1 -> ()
            | i ->
                per_slot.(slot) <- i :: per_slot.(slot);
                loop ()
          in
          loop ());
      let all = List.sort compare (List.concat (Array.to_list per_slot)) in
      Morsel.claim c = -1 && all = List.init n Fun.id)

let test_cursor_serial () =
  let c = Morsel.cursor 3 in
  let a = Morsel.claim c in
  let b = Morsel.claim c in
  let d = Morsel.claim c in
  Alcotest.(check (list int)) "hands out indices in order" [ 0; 1; 2 ]
    [ a; b; d ];
  Alcotest.(check int) "exhausted" (-1) (Morsel.claim c);
  Alcotest.(check int) "stays exhausted" (-1) (Morsel.claim c);
  let empty = Morsel.cursor 0 in
  Alcotest.(check int) "empty cursor starts exhausted" (-1)
    (Morsel.claim empty)

(* --- accumulators ----------------------------------------------------- *)

let test_acc () =
  let a = Morsel.acc () in
  Alcotest.(check int) "add returns committed total" 5 (Morsel.add a 5);
  Alcotest.(check int) "totals accumulate" 12 (Morsel.add a 7);
  Alcotest.(check int) "total reads the sum" 12 (Morsel.total a);
  Morsel.reset a;
  Alcotest.(check int) "reset zeroes" 0 (Morsel.total a);
  (* Concurrent adds commit every contribution exactly once: 4 slots
     (3 workers + caller) x 1000 ones. *)
  with_pool 4 (fun pool ->
      Util.Domain_pool.run_workers pool (fun _slot ->
          for _ = 1 to 1000 do
            ignore (Morsel.add a 1)
          done);
      Alcotest.(check int) "4000 concurrent adds all commit" 4000
        (Morsel.total a))

(* --- the end-to-end determinism guarantee ----------------------------- *)

let engine = { Exec.Engine_config.robust with name = "morsel test" }

(* A checkpoint observer that does nothing: attaching it makes every
   plan node a pipeline breaker, so each intermediate is materialized. *)
let no_op_observer _set ~rows:_ ~work:_ = ()

let run_all ?observe db pool =
  let s = Core.Session.of_database db in
  List.map
    (fun (q : Workload.Job.query) ->
      let query =
        Core.Session.sql s ~name:q.Workload.Job.name q.Workload.Job.sql
      in
      let choice = Core.Session.optimize s query in
      let r =
        Exec.Executor.run ~db ~graph:query.Core.Session.graph ~config:engine
          ~size_est:choice.Core.Session.estimator.Cardest.Estimator.subset
          ?observe ?pool ~projections:query.Core.Session.projections
          choice.Core.Session.plan
      in
      ( q.Workload.Job.name,
        r.Exec.Executor.rows,
        r.Exec.Executor.work,
        r.Exec.Executor.timed_out,
        List.map Storage.Value.to_string r.Exec.Executor.mins ))
    Workload.Job.all

let check_identical label baseline got =
  List.iter2
    (fun (name, rows, work, timed_out, mins)
         (gname, grows, gwork, gtimed, gmins) ->
      let l = Printf.sprintf "%s (%s)" name label in
      Alcotest.(check string) (l ^ " name") name gname;
      Alcotest.(check int) (l ^ " rows") rows grows;
      Alcotest.(check int) (l ^ " work") work gwork;
      Alcotest.(check bool) (l ^ " timed_out") timed_out gtimed;
      Alcotest.(check (list string)) (l ^ " mins") mins gmins)
    baseline got

(* The determinism guarantee: all 113 queries, no pool vs exec-jobs 2
   vs exec-jobs 4 — rows, work, timeout flags and aggregates all
   byte-identical. Scale 0.002 is large enough for dozens of phases per
   pass to reach the pool threshold of two morsels. *)
let test_workload_exec_jobs () =
  let db = Datagen.Imdb_gen.generate ~seed:5 ~scale:0.002 () in
  Morsel.reset_stats ();
  let serial = run_all db None in
  with_pool 2 (fun p2 ->
      check_identical "exec-jobs 2" serial (run_all db (Some p2)));
  with_pool 4 (fun p4 ->
      check_identical "exec-jobs 4" serial (run_all db (Some p4)));
  (* Guard against the identity passing vacuously: the pooled runs must
     actually have put phases on the pool (30 on this database). *)
  let stats = Morsel.stats () in
  Alcotest.(check bool)
    (Printf.sprintf "at least 25 pool phases ran (%d)" stats.Morsel.st_phases)
    true
    (stats.Morsel.st_phases >= 25);
  Alcotest.(check bool) "morsels were dispatched" true
    (stats.Morsel.st_dispatched > 0)

(* Fused and materialized execution agree: the whole workload with no
   observer (probe sides pipelined) against a no-op observer (every node
   materialized), with no pool and with 2- and 4-domain pools. *)
let test_workload_fused_vs_materialized () =
  let db = Datagen.Imdb_gen.generate ~seed:5 ~scale:0.002 () in
  let fused = run_all db None in
  check_identical "materialized" fused (run_all ~observe:no_op_observer db None);
  List.iter
    (fun domains ->
      with_pool domains (fun p ->
          check_identical
            (Printf.sprintf "materialized, exec-jobs %d" domains)
            fused
            (run_all ~observe:no_op_observer db (Some p))))
    [ 2; 4 ]

(* --- budget trips inside a pool phase ---------------------------------- *)

(* cast_info ⋈ title as one hash join, cast_info the probe side, and
   as one merge join. The hash plan's scan and probe both run over
   enough rows to be pool phases, as does the merge plan's cast_info
   scan; the merge join itself stages its output on the calling
   domain. *)
let trip_fixture =
  lazy
    (let db = Datagen.Imdb_gen.generate ~seed:7 ~scale:0.005 () in
     let b =
       Sqlfront.Binder.bind_sql db ~name:"trip"
         "SELECT MIN(t.title) FROM title AS t, cast_info AS ci WHERE \
          t.id = ci.movie_id"
     in
     let g = b.Sqlfront.Binder.graph in
     let rel alias =
       (List.find
          (fun (r : Query.Query_graph.relation) ->
            String.equal r.Query.Query_graph.alias alias)
          (Array.to_list (Query.Query_graph.relations g)))
         .Query.Query_graph.idx
     in
     let plan algo =
       Plan.join algo ~outer:(Plan.scan (rel "ci")) ~inner:(Plan.scan (rel "t"))
     in
     let scan_rows =
       Storage.Table.row_count (Storage.Database.find_table db "cast_info")
     in
     (db, g, b.Sqlfront.Binder.projections, plan, scan_rows))

let run_trip ?pool ?(algo = Plan.Hash_join) config =
  let db, graph, projections, plan, _ = Lazy.force trip_fixture in
  Exec.Executor.run ~db ~graph ~config ~size_est:(fun _ -> 1024.0) ?pool
    ~projections (plan algo)

let fingerprint (r : Exec.Executor.result) =
  Printf.sprintf "rows %d, work %d, timed out %b, mins [%s]" r.Exec.Executor.rows
    r.Exec.Executor.work r.Exec.Executor.timed_out
    (String.concat "; " (List.map Storage.Value.to_string r.Exec.Executor.mins))

(* A budget that trips mid-phase gives the same timeout result with and
   without a pool, and leaves the pool free: the next query on it
   answers exactly as the no-pool run does, on the pool. *)
let check_trip ?algo label config =
  let full = fingerprint (run_trip ?algo engine) in
  let tripped = run_trip ?algo config in
  Alcotest.(check bool) (label ^ ": trips without a pool") true
    tripped.Exec.Executor.timed_out;
  List.iter
    (fun domains ->
      with_pool domains (fun p ->
          let on_pool l config =
            Morsel.reset_stats ();
            let r = fingerprint (run_trip ~pool:p ?algo config) in
            Alcotest.(check bool) (l ^ " ran on the pool") true
              ((Morsel.stats ()).Morsel.st_phases > 0);
            r
          in
          let l = Printf.sprintf "%s, %d domains" label domains in
          Alcotest.(check string) (l ^ ": same timeout result")
            (fingerprint tripped)
            (on_pool (l ^ ": the trip") config);
          Alcotest.(check string) (l ^ ": next query unaffected") full
            (on_pool (l ^ ": the next query") engine)))
    [ 2; 4 ]

let test_work_limit_trip () =
  let _, _, _, _, scan_rows = Lazy.force trip_fixture in
  Alcotest.(check bool)
    (Printf.sprintf "probe-side scan (%d rows) spans two morsels" scan_rows)
    true
    (scan_rows >= 2 * 4096);
  (* The probe-side scan alone charges one unit per row, so half its
     rows trips the work budget inside a pool phase: the build side's
     scan or the cast_info scan-and-probe pipeline. *)
  check_trip "work limit"
    { engine with Exec.Engine_config.work_limit = scan_rows / 2 }

(* Only probe stages and the merge join count emitted rows against the
   row budget. The merge join counts its output as it stages it: half
   of it trips after at least one full 4096-row buffer went into the
   staging segments. *)
let test_row_limit_trip () =
  let rows = (run_trip engine).Exec.Executor.rows in
  Alcotest.(check bool) "join emits rows" true (rows > 1);
  check_trip "row limit"
    { engine with Exec.Engine_config.row_limit = rows / 2 };
  Alcotest.(check int) "merge join = hash join" rows
    (run_trip ~algo:Plan.Merge_join engine).Exec.Executor.rows;
  Alcotest.(check bool)
    (Printf.sprintf "half the output (%d rows) fills a buffer" (rows / 2))
    true
    (rows / 2 > 4096);
  check_trip ~algo:Plan.Merge_join "merge row limit"
    { engine with Exec.Engine_config.row_limit = rows / 2 }

(* --- a trip on an intermediate that is never stored --------------------- *)

(* (cast_info ⋈ title) ⋈ kind_type, two hash joins over the same
   database. Without an observer the middle join is fused between the
   cast_info scan and the kind_type probe, so its output only ever
   exists a chunk at a time; the kind predicate makes it far larger than
   the result. *)
let chain_fixture =
  lazy
    (let db, _, _, _, _ = Lazy.force trip_fixture in
     let b =
       Sqlfront.Binder.bind_sql db ~name:"chain"
         "SELECT MIN(t.title) FROM title AS t, cast_info AS ci, kind_type AS \
          kt WHERE t.id = ci.movie_id AND t.kind_id = kt.id AND kt.kind = \
          'episode'"
     in
     let g = b.Sqlfront.Binder.graph in
     let rel alias =
       (List.find
          (fun (r : Query.Query_graph.relation) ->
            String.equal r.Query.Query_graph.alias alias)
          (Array.to_list (Query.Query_graph.relations g)))
         .Query.Query_graph.idx
     in
     let plan =
       Plan.join Plan.Hash_join
         ~outer:
           (Plan.join Plan.Hash_join ~outer:(Plan.scan (rel "ci"))
              ~inner:(Plan.scan (rel "t")))
         ~inner:(Plan.scan (rel "kt"))
     in
     (db, g, b.Sqlfront.Binder.projections, plan))

(* A row budget between the result and the middle join's output trips
   on the unstored intermediate exactly as on the stored one: the same
   timeout result pipelined or materialized, with or without a pool. *)
let test_unstored_row_limit_trip () =
  let db, graph, projections, plan = Lazy.force chain_fixture in
  let exec ?observe ?pool config =
    Exec.Executor.run ~db ~graph ~config ~size_est:(fun _ -> 1024.0) ?observe
      ?pool ~projections plan
  in
  let joins = ref [] in
  let full =
    exec
      ~observe:(fun set ~rows ~work:_ ->
        if Util.Bitset.cardinal set = 2 then joins := rows :: !joins)
      engine
  in
  let middle = List.hd !joins and result = full.Exec.Executor.rows in
  Alcotest.(check bool)
    (Printf.sprintf "middle join (%d rows) outgrows the result (%d)" middle
       result)
    true
    (middle > result + 1);
  let config =
    { engine with Exec.Engine_config.row_limit = (middle + result) / 2 }
  in
  let tripped = exec config in
  Alcotest.(check bool) "pipelined run trips" true
    tripped.Exec.Executor.timed_out;
  Alcotest.(check int) "work = limit" config.Exec.Engine_config.work_limit
    tripped.Exec.Executor.work;
  let want = fingerprint tripped in
  Alcotest.(check string) "materialized run trips alike" want
    (fingerprint (exec ~observe:no_op_observer config));
  List.iter
    (fun domains ->
      with_pool domains (fun p ->
          let l = Printf.sprintf "%d domains" domains in
          Alcotest.(check string) (l ^ ": pipelined") want
            (fingerprint (exec ~pool:p config));
          Alcotest.(check string) (l ^ ": materialized") want
            (fingerprint (exec ~observe:no_op_observer ~pool:p config))))
    [ 2; 4 ]

(* --- re-optimization composes with the pool --------------------------- *)

let test_reopt_pool_parity () =
  let database = Lazy.force Support.imdb_mid in
  Storage.Database.set_index_config database Storage.Database.Pk_only;
  let config = Exec.Engine_config.default_9_4 in
  List.iter
    (fun name ->
      let q = Workload.Job.find name in
      let b =
        Sqlfront.Binder.bind_sql database ~name q.Workload.Job.sql
      in
      let graph = b.Sqlfront.Binder.graph in
      let estimator =
        Cardest.Systems.postgres
          (Dbstats.Analyze.create database)
          { Cardest.Systems.db = database; graph }
      in
      let drive pool =
        Reopt.Driver.run ~db:database ~graph ~config
          ~model:Cost.Cost_model.postgres ~estimator ~threshold:1.1
          ~max_replans:8 ?pool
          ~projections:b.Sqlfront.Binder.projections ()
      in
      let serial = drive None in
      let pooled = with_pool 4 (fun p -> drive (Some p)) in
      Alcotest.(check int)
        (name ^ ": same number of re-plans")
        serial.Reopt.Driver.replans pooled.Reopt.Driver.replans;
      Alcotest.(check int)
        (name ^ ": same rows")
        serial.Reopt.Driver.result.Exec.Executor.rows
        pooled.Reopt.Driver.result.Exec.Executor.rows;
      Alcotest.(check int)
        (name ^ ": same cumulative work")
        serial.Reopt.Driver.result.Exec.Executor.work
        pooled.Reopt.Driver.result.Exec.Executor.work;
      Alcotest.(check int)
        (name ^ ": same wasted work")
        serial.Reopt.Driver.wasted_work pooled.Reopt.Driver.wasted_work;
      Alcotest.(check int)
        (name ^ ": same reused work")
        serial.Reopt.Driver.reused_work pooled.Reopt.Driver.reused_work;
      Alcotest.(check (list string))
        (name ^ ": same aggregates")
        (List.map Storage.Value.to_string
           serial.Reopt.Driver.result.Exec.Executor.mins)
        (List.map Storage.Value.to_string
           pooled.Reopt.Driver.result.Exec.Executor.mins))
    [ "6a"; "16d"; "17b" ]

let suite =
  [
    Alcotest.test_case "cursor hands out indices serially" `Quick
      test_cursor_serial;
    Support.qcheck_case ~count:20
      ~name:"cursor: every morsel claimed exactly once under concurrency"
      QCheck.(int_range 0 300)
      cursor_claims_each_exactly_once;
    Alcotest.test_case "phase accumulators" `Quick test_acc;
    Alcotest.test_case "113-query workload identical at exec-jobs 1/2/4"
      `Slow test_workload_exec_jobs;
    Alcotest.test_case "work-limit trip identical and leaves the pool free"
      `Quick test_work_limit_trip;
    Alcotest.test_case "row-limit trip identical and leaves the pool free"
      `Quick test_row_limit_trip;
    Alcotest.test_case "fused and materialized runs identical" `Slow
      test_workload_fused_vs_materialized;
    Alcotest.test_case "row-limit trip on an unstored intermediate" `Quick
      test_unstored_row_limit_trip;
    Alcotest.test_case "reopt trajectory identical with a pool" `Slow
      test_reopt_pool_parity;
  ]
