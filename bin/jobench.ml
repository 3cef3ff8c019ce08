(* jobench: command-line driver for the Join Order Benchmark
   reproduction.

   Subcommands:
     list                         the 113 benchmark queries
     show QUERY                   SQL and bound join graph
     plan QUERY [options]         optimize and explain
     run QUERY [options]          optimize, execute, report
     trace QUERY [--out FILE]     run with span recording, dump the trace
     experiment ID [--scale S]    regenerate one paper table/figure

   run, experiment and serve also take --trace FILE: record spans for
   the whole command and write one trace document at the end. *)

open Cmdliner

(* Option docs are derived from the component registry, so the help text
   can never drift from what actually resolves. *)
let registry_doc intro registry =
  Printf.sprintf "%s: %s." intro
    (String.concat ", "
       (List.map (fun n -> Printf.sprintf "'%s'" n) (Core.Registry.names registry)))

let scale_arg =
  let doc =
    "Database scale factor, relative to the paper's full 3.6 GB IMDB \
     snapshot (1.0 ~ 16.5M rows). The default 0.02 is the ~330k-row \
     reference database."
  in
  Arg.(value & opt float Datagen.Imdb_gen.reference_scale
       & info [ "scale" ] ~docv:"S" ~doc)

let seed_arg =
  let doc = "Data generator seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)

let estimator_arg =
  let doc = registry_doc "Cardinality estimator" Core.Registry.estimators in
  Arg.(value & opt string "PostgreSQL" & info [ "estimator"; "e" ] ~docv:"SYS" ~doc)

let model_arg =
  let doc = registry_doc "Cost model" Core.Registry.cost_models in
  Arg.(value & opt string "PostgreSQL" & info [ "cost-model"; "m" ] ~docv:"M" ~doc)

let indexes_arg =
  let doc = registry_doc "Physical design" Core.Registry.index_configs in
  Arg.(value & opt string "pk" & info [ "indexes"; "i" ] ~docv:"CFG" ~doc)

let enumerator_arg =
  let doc = registry_doc "Plan enumeration" Core.Registry.enumerators in
  Arg.(value & opt string "dp" & info [ "enumerator" ] ~docv:"E" ~doc)

let engine_arg =
  let doc = registry_doc "Execution engine configuration" Core.Registry.engines in
  Arg.(value & opt string "robust" & info [ "engine" ] ~docv:"ENG" ~doc)

let query_arg =
  let doc = "Benchmark query name (e.g. 13d) or a file containing SQL." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc)

let parse_indexes s = Core.Registry.(find_exn index_configs) s

let parse_enumerator s = Core.Registry.(find_exn enumerators) s

let parse_engine s = Core.Registry.(find_exn engines) s

let exec_jobs_arg =
  let doc =
    "Worker domains for morsel-driven intra-query parallelism (1 = \
     the calling domain only; 0 = the number of cores). Results are \
     byte-identical at any value — only wall clock changes."
  in
  Arg.(value & opt int 1 & info [ "exec-jobs" ] ~docv:"N" ~doc)

let resolve_exec_jobs n =
  if n < 0 then invalid_arg "jobench: --exec-jobs must be >= 0"
  else if n = 0 then Domain.recommended_domain_count ()
  else n

let data_arg =
  let doc =
    "Load the database from a directory of CSV files (as written by \
     'jobench generate') instead of generating it."
  in
  Arg.(value & opt (some string) None & info [ "data" ] ~docv:"DIR" ~doc)

let session ?data ~seed ~scale ~indexes () =
  let s =
    match data with
    | Some dir -> Core.Session.of_database (Datagen.Imdb_schema.load ~dir)
    | None -> Core.Session.create ~seed ~scale ()
  in
  Core.Session.set_physical_design s (parse_indexes indexes);
  s

let load_query s name =
  match Workload.Job.find name with
  | q -> Core.Session.sql s ~name (q.Workload.Job.sql)
  | exception Not_found ->
      if Sys.file_exists name then
        let ic = open_in name in
        let text = really_input_string ic (in_channel_length ic) in
        close_in ic;
        Core.Session.sql s ~name:(Filename.basename name) text
      else failwith (Printf.sprintf "no such benchmark query or file: %s" name)

(* --- list ----------------------------------------------------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun (family, queries) ->
        let names =
          String.concat " "
            (List.map (fun q -> q.Workload.Job.name) queries)
        in
        Printf.printf "family %2d: %s\n" family names)
      Workload.Job.families;
    Printf.printf "%d queries, %d families\n" Workload.Job.query_count
      Workload.Job.family_count
  in
  Cmd.v (Cmd.info "list" ~doc:"List the 113 benchmark queries")
    Term.(const run $ const ())

(* --- show ------------------------------------------------------------ *)

let show_cmd =
  let run scale seed data name =
    let s = session ?data ~seed ~scale ~indexes:"pk" () in
    let q = load_query s name in
    Printf.printf "%s\n\n" q.Core.Session.sql;
    Format.printf "%a" Query.Query_graph.pp q.Core.Session.graph
  in
  Cmd.v (Cmd.info "show" ~doc:"Show a query's SQL and join graph")
    Term.(const run $ scale_arg $ seed_arg $ data_arg $ query_arg)

(* --- plan ------------------------------------------------------------- *)

let dot_arg =
  let doc = "Emit the plan as GraphViz dot instead of a tree." in
  Arg.(value & flag & info [ "dot" ] ~doc)

let plan_cmd =
  let run scale seed data indexes estimator model enumerator dot name =
    let s = session ?data ~seed ~scale ~indexes () in
    let q = load_query s name in
    ignore (Core.Session.true_cardinalities s q);
    let choice =
      Core.Session.optimize s ~estimator ~cost_model:model
        ~enumerator:(parse_enumerator enumerator) q
    in
    if dot then print_string (Core.Session.plan_dot s q choice)
    else print_string (Core.Session.explain s q choice)
  in
  Cmd.v
    (Cmd.info "plan" ~doc:"Optimize a query and print the chosen plan")
    Term.(
      const run $ scale_arg $ seed_arg $ data_arg $ indexes_arg $ estimator_arg
      $ model_arg $ enumerator_arg $ dot_arg $ query_arg)

(* Whole-command tracing (--trace FILE on run/experiment/serve): enable
   span recording around the command body, then flush every buffer into
   one trace document. The wall clock here brackets the entire command
   — database generation included — so coverage is only meaningful for
   the single-query [trace] subcommand, which starts its clock after
   the session is built. *)
let trace_arg =
  let doc =
    "Record trace spans for the whole command and write the trace \
     document (spans, per-phase totals, metrics registry) as JSON to \
     $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let with_trace trace f =
  match trace with
  | None -> f ()
  | Some file ->
      Obs.Trace.set_enabled true;
      Obs.Trace.clear ();
      let t0 = Obs.Trace.now_ns () in
      Fun.protect ~finally:(fun () -> Obs.Trace.set_enabled false) f;
      let wall_ms = float_of_int (Obs.Trace.now_ns () - t0) /. 1e6 in
      let spans, dropped = Obs.Trace.flush () in
      let oc = open_out file in
      output_string oc (Obs.Export.trace_json ~wall_ms ~spans ~dropped ());
      close_out oc;
      Printf.printf "wrote trace to %s (%d spans)\n%!" file
        (List.length spans)

(* --- run --------------------------------------------------------------- *)

let run_cmd =
  let run scale seed data indexes estimator model enumerator engine exec_jobs
      trace name =
    let exec_jobs = resolve_exec_jobs exec_jobs in
    let pool =
      if exec_jobs > 1 then Some (Util.Domain_pool.create ~domains:exec_jobs)
      else None
    in
    Fun.protect
      ~finally:(fun () ->
        match pool with Some p -> Util.Domain_pool.shutdown p | None -> ())
      (fun () ->
        with_trace trace (fun () ->
            let s = session ?data ~seed ~scale ~indexes () in
            let q = load_query s name in
            let choice =
              Core.Session.optimize s ~estimator ~cost_model:model
                ~enumerator:(parse_enumerator enumerator) q
            in
            let engine = parse_engine engine in
            let text, result =
              Core.Session.explain_analyze s ~engine ?pool q choice
            in
            print_string text;
            List.iter
              (fun v ->
                Printf.printf "  MIN = %s\n" (Storage.Value.to_string v))
              result.Exec.Executor.mins))
  in
  Cmd.v (Cmd.info "run" ~doc:"Optimize and execute a query (EXPLAIN ANALYZE)")
    Term.(
      const run $ scale_arg $ seed_arg $ data_arg $ indexes_arg $ estimator_arg
      $ model_arg $ enumerator_arg $ engine_arg $ exec_jobs_arg $ trace_arg
      $ query_arg)

(* --- trace ------------------------------------------------------------- *)

let trace_cmd =
  let out_arg =
    let doc = "Write the trace JSON to $(docv) instead of stdout." in
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc)
  in
  let run scale seed data indexes estimator model enumerator engine exec_jobs
      out name =
    let exec_jobs = resolve_exec_jobs exec_jobs in
    let pool =
      if exec_jobs > 1 then Some (Util.Domain_pool.create ~domains:exec_jobs)
      else None
    in
    Fun.protect
      ~finally:(fun () ->
        match pool with Some p -> Util.Domain_pool.shutdown p | None -> ())
      (fun () ->
        let s = session ?data ~seed ~scale ~indexes () in
        (* The clock starts after the session (database + ANALYZE) is
           built, so the traced window is exactly the query pipeline:
           parse -> bind -> plan -> verify -> exec. Coverage — the
           top-level phase sum over this wall time — is the acceptance
           figure for span placement. *)
        Obs.Trace.set_enabled true;
        Obs.Trace.clear ();
        let t0 = Obs.Trace.now_ns () in
        let q = load_query s name in
        let choice =
          Core.Session.optimize s ~estimator ~cost_model:model
            ~enumerator:(parse_enumerator enumerator) q
        in
        let result =
          Core.Session.run s ~engine:(parse_engine engine) ?pool q choice
        in
        let wall_ms = float_of_int (Obs.Trace.now_ns () - t0) /. 1e6 in
        Obs.Trace.set_enabled false;
        let spans, dropped = Obs.Trace.flush () in
        let doc =
          Obs.Export.trace_json ~query:q.Core.Session.name ~wall_ms ~spans
            ~dropped ()
        in
        (match out with
        | Some file ->
            let oc = open_out file in
            output_string oc doc;
            close_out oc;
            Printf.printf "wrote %s\n" file
        | None -> print_string doc);
        let cov = Obs.Export.coverage ~wall_ms spans in
        Printf.eprintf
          "%s: %d rows, wall %.2f ms, %d spans, phase coverage %.1f%%\n%!"
          q.Core.Session.name result.Exec.Executor.rows wall_ms
          (List.length spans) (100.0 *. cov);
        if cov < 0.95 then
          Printf.eprintf
            "warning: top-level phases cover < 95%% of wall time\n%!")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Optimize and execute a query with span recording on and dump the \
          trace as JSON")
    Term.(
      const run $ scale_arg $ seed_arg $ data_arg $ indexes_arg $ estimator_arg
      $ model_arg $ enumerator_arg $ engine_arg $ exec_jobs_arg $ out_arg
      $ query_arg)

(* --- generate ------------------------------------------------------------ *)

let generate_cmd =
  let dir_arg =
    let doc = "Output directory for the CSV files." in
    Arg.(required & opt (some string) None & info [ "dir"; "o" ] ~docv:"DIR" ~doc)
  in
  let run scale seed dir =
    let db = Datagen.Imdb_gen.generate ~seed ~scale () in
    Storage.Csv.export_database db ~dir;
    Printf.printf "exported %d tables (%d rows) to %s\n"
      (List.length (Storage.Database.table_names db))
      (Storage.Database.total_rows db) dir
  in
  Cmd.v
    (Cmd.info "generate"
       ~doc:"Generate the synthetic IMDB database and export it as CSV files")
    Term.(const run $ scale_arg $ seed_arg $ dir_arg)

(* --- stats ---------------------------------------------------------------- *)

let stats_cmd =
  let table_arg =
    let doc = "Table to show ANALYZE statistics for." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TABLE" ~doc)
  in
  let run scale seed data table_name =
    let s = session ?data ~seed ~scale ~indexes:"pk" () in
    let db = Core.Session.db s in
    let table = Storage.Database.find_table db table_name in
    let analyze = Dbstats.Analyze.create db in
    let stats = Dbstats.Analyze.table analyze table_name in
    Printf.printf "table %s: %d rows, %d columns\n\n" table_name
      stats.Dbstats.Analyze.row_count
      (Storage.Table.column_count table);
    Array.iteri
      (fun i (cs : Dbstats.Column_stats.t) ->
        let column = Storage.Table.column table i in
        Printf.printf "%-18s %-5s nulls %5s  distinct ~%.0f (exact %.0f)\n"
          (Storage.Column.name column)
          (Storage.Value.ty_to_string (Storage.Column.ty column))
          (Util.Render.percent_cell cs.Dbstats.Column_stats.null_fraction)
          cs.Dbstats.Column_stats.distinct_sampled
          cs.Dbstats.Column_stats.distinct_exact;
        Array.iteri
          (fun rank (code, freq) ->
            if rank < 5 then
              let decoded =
                match Storage.Column.dict column with
                | Some dict when code >= 0 ->
                    Printf.sprintf "'%s'" (Storage.Dict.get dict code)
                | _ -> string_of_int code
              in
              Printf.printf "    mcv%d %-28s %s\n" (rank + 1) decoded
                (Util.Render.percent_cell freq))
          cs.Dbstats.Column_stats.mcv)
      (Array.map Util.Once.force stats.Dbstats.Analyze.columns)
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Show ANALYZE statistics for a table")
    Term.(const run $ scale_arg $ seed_arg $ data_arg $ table_arg)

(* --- estimate ------------------------------------------------------------- *)

let estimate_cmd =
  let run scale seed data indexes name =
    let s = session ?data ~seed ~scale ~indexes () in
    let q = load_query s name in
    let truth = Core.Session.true_cardinalities s q in
    let full = Query.Query_graph.full_set q.Core.Session.graph in
    let exact = Cardest.True_card.card truth full in
    Printf.printf "%s: true cardinality %.0f\n\n" q.Core.Session.name exact;
    Printf.printf "%-28s %14s %12s\n" "system" "estimate" "q-error";
    (* The system list is the estimator registry itself, so a newly
       registered estimator shows up here without touching the CLI. *)
    List.iter
      (fun system ->
        let est = Core.Session.estimator s q system in
        let estimate = est.Cardest.Estimator.subset full in
        Printf.printf "%-28s %14.0f %12s\n" system estimate
          (Util.Render.float_cell
             (Util.Stat.q_error
                ~estimate:(Float.max 1.0 estimate)
                ~truth:(Float.max 1.0 exact))))
      (Core.Registry.names Core.Registry.estimators)
  in
  Cmd.v
    (Cmd.info "estimate"
       ~doc:"Compare every system's full-query cardinality estimate to the truth")
    Term.(const run $ scale_arg $ seed_arg $ data_arg $ indexes_arg $ query_arg)

(* --- verify --------------------------------------------------------------- *)

let verify_cmd =
  let queries_arg =
    let doc = "Comma-separated query names to verify, or 'all'." in
    Arg.(value & opt string "all" & info [ "queries"; "q" ] ~docv:"NAMES" ~doc)
  in
  let enumerators_arg =
    let doc =
      "Comma-separated enumerators to verify (dp, goo, quickpick:N, simpli)."
    in
    Arg.(
      value
      & opt string "dp,goo,quickpick:10,simpli"
      & info [ "enumerators" ] ~docv:"ES" ~doc)
  in
  let estimators_arg =
    let doc = "Comma-separated estimator systems to verify, or 'all'." in
    Arg.(value & opt string "all" & info [ "estimators" ] ~docv:"SYSS" ~doc)
  in
  let models_arg =
    let doc = "Comma-separated cost models to verify, or 'all'." in
    Arg.(value & opt string "all" & info [ "cost-models" ] ~docv:"MS" ~doc)
  in
  let run scale seed data indexes queries enumerators estimators models =
    let split s = String.split_on_char ',' s |> List.map String.trim in
    let s = session ?data ~seed ~scale ~indexes () in
    let names =
      if String.equal queries "all" then
        List.map (fun q -> q.Workload.Job.name) Workload.Job.all
      else split queries
    in
    let enumerators =
      List.map
        (fun e -> Core.Registry.verify_enumerator (parse_enumerator e))
        (split enumerators)
    in
    let estimator_names =
      if String.equal estimators "all" then Cardest.Systems.names
      else split estimators
    in
    let models =
      if String.equal models "all" then
        List.map (fun e -> e.Core.Registry.value)
          (Core.Registry.entries Core.Registry.cost_models)
      else
        List.map Core.Registry.(find_exn cost_models) (split models)
    in
    let total = ref Verify.Violation.empty in
    List.iter
      (fun name ->
        let q = load_query s name in
        let estimators =
          List.map (Core.Session.estimator s q) estimator_names
        in
        let report =
          Verify.check_all ~query:name ~enumerators
            ~graph:q.Core.Session.graph ~db:(Core.Session.db s) ~estimators
            ~models ()
        in
        total := Verify.Violation.merge !total report;
        if Verify.Violation.ok report then
          Printf.printf "%-4s ok (%d checks)\n%!" name
            report.Verify.Violation.checks
        else begin
          Printf.printf "%-4s FAILED (%d checks, %d violations)\n%!" name
            report.Verify.Violation.checks
            (List.length report.Verify.Violation.violations);
          List.iter
            (fun v -> Printf.printf "     %s\n" (Verify.Violation.to_string v))
            report.Verify.Violation.violations
        end)
      names;
    let violations = List.length !total.Verify.Violation.violations in
    Printf.printf
      "verify: %d queries, %d enumerators x %d estimators x %d cost models, \
       %d checks, %d violations\n"
      (List.length names) (List.length enumerators)
      (List.length estimator_names) (List.length models)
      !total.Verify.Violation.checks violations;
    if violations > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Statically sanitize plans, estimates and costs over the workload \
          without executing queries")
    Term.(
      const run $ scale_arg $ seed_arg $ data_arg $ indexes_arg $ queries_arg
      $ enumerators_arg $ estimators_arg $ models_arg)

(* --- experiment ---------------------------------------------------------- *)

let experiment_cmd =
  let id_arg =
    (* The ID list is the experiment catalog itself. *)
    let doc =
      Printf.sprintf "Experiment id (%s) or 'all'."
        (String.concat ", " Experiments.Catalog.ids)
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc)
  in
  let verify_flag =
    let doc =
      "Run the optimizer sanitizer (estimate and cost passes) on every \
       planning call while regenerating the experiment."
    in
    Arg.(value & flag & info [ "verify" ] ~doc)
  in
  let stats_flag =
    let doc =
      "After rendering, print the pipeline's plan-cache and estimator-cache \
       counters (hits, misses, plans enumerated, estimator probes)."
    in
    Arg.(value & flag & info [ "stats" ] ~doc)
  in
  let jobs_arg =
    let doc =
      "Worker domains for per-query fan-out (1 = serial; 0 = the number of \
       cores). Experiment output is byte-identical at any job count."
    in
    Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)
  in
  let gc_stats_flag =
    let doc =
      "After rendering, print this domain's GC counters (allocated words, \
       minor/major collections) — the figure of merit for the \
       allocation-free executor and true-cardinality kernels — its \
       effective GC settings (minor heap size, space overhead) and peak \
       major heap, plus the hash-join load-factor and morsel-scheduler \
       telemetry."
    in
    Arg.(value & flag & info [ "gc-stats" ] ~doc)
  in
  let reopt_threshold_arg =
    let doc =
      "Q-error trip point for the 'reopt' experiment's main table: a \
       checkpoint whose observed cardinality is off from its estimate by \
       more than this factor abandons the attempt and re-plans. Must be >= \
       1.0."
    in
    Arg.(
      value & opt float 2.0 & info [ "reopt-threshold" ] ~docv:"FACTOR" ~doc)
  in
  let run scale seed verify stats gc_stats reopt_threshold jobs exec_jobs
      trace id =
    Atomic.set Experiments.Harness.debug_verify verify;
    if reopt_threshold < 1.0 then
      invalid_arg "jobench experiment: --reopt-threshold must be >= 1.0";
    Atomic.set Experiments.Exp_reopt.threshold reopt_threshold;
    let jobs =
      if jobs < 0 then invalid_arg "jobench experiment: -j must be >= 0"
      else if jobs = 0 then Domain.recommended_domain_count ()
      else jobs
    in
    (* The two parallelism levels compose but should not oversubscribe:
       with N inter-query workers each racing for the shared morsel
       pool, cap the morsel pool so jobs * exec_jobs stays within the
       core budget. Results are byte-identical at any cap. *)
    let exec_jobs =
      let requested = resolve_exec_jobs exec_jobs in
      if jobs <= 1 then requested
      else
        max 1 (min requested (Domain.recommended_domain_count () / jobs))
    in
    let h = Experiments.Harness.create ~seed ~scale ~jobs ~exec_jobs () in
    Fun.protect
      ~finally:(fun () -> Experiments.Harness.shutdown h)
      (fun () ->
        with_trace trace @@ fun () ->
        let selected =
          if String.equal id "all" then Experiments.Catalog.all
          else [ Experiments.Catalog.find_exn id ]
        in
        List.iter
          (fun (e : Experiments.Catalog.entry) ->
            Printf.printf "=== %s ===\n%s\n%!" e.Experiments.Catalog.id
              (e.Experiments.Catalog.render h))
          selected;
        if stats then
          Printf.printf "--- %s\n%!" (Experiments.Harness.stats_summary h);
        if gc_stats then begin
          let g = Gc.quick_stat () in
          Printf.printf
            "--- gc: %.1f MB minor + %.1f MB major allocated, %d minor \
             collections, %d major collections, %d compactions\n%!"
            (g.Gc.minor_words *. 8.0 /. 1048576.0)
            ((g.Gc.major_words -. g.Gc.promoted_words) *. 8.0 /. 1048576.0)
            g.Gc.minor_collections g.Gc.major_collections g.Gc.compactions;
          (* The effective settings and the major heap's peak, so a log
             shows which GC regime a run had and how big its heap got. *)
          let p = Gc.get () in
          Printf.printf
            "--- gc settings: minor_heap_size %d words, space_overhead %d, \
             top_heap_words %d\n%!"
            p.Gc.minor_heap_size p.Gc.space_overhead g.Gc.top_heap_words;
          let ls = Exec.Join_table.load_stats () in
          Printf.printf
            "--- join tables: %d sealed, %d entries / %d buckets, mean \
             final load %.3f, max %.3f\n%!"
            ls.Exec.Join_table.ls_tables ls.Exec.Join_table.ls_entries
            ls.Exec.Join_table.ls_buckets ls.Exec.Join_table.ls_mean_load
            ls.Exec.Join_table.ls_max_load;
          let ms = Exec.Morsel.stats () in
          Printf.printf
            "--- morsels: %d parallel phases, %d dispatched, %d stolen, \
             skew %.2f\n%!"
            ms.Exec.Morsel.st_phases ms.Exec.Morsel.st_dispatched
            ms.Exec.Morsel.st_stolen ms.Exec.Morsel.st_skew
        end)
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate a table or figure from the paper")
    Term.(
      const run $ scale_arg $ seed_arg $ verify_flag $ stats_flag
      $ gc_stats_flag $ reopt_threshold_arg $ jobs_arg $ exec_jobs_arg
      $ trace_arg $ id_arg)

(* --- serve ---------------------------------------------------------------- *)

let serve_cmd =
  let clients_arg =
    let doc =
      "Comma-separated simulated client-session counts; one benchmark row \
       per value."
    in
    Arg.(value & opt string "1,4,16" & info [ "clients" ] ~docv:"NS" ~doc)
  in
  let duration_arg =
    let doc = "Total queries per row, split across the client sessions." in
    Arg.(value & opt int 1000 & info [ "duration-queries" ] ~docv:"N" ~doc)
  in
  let theta_arg =
    let doc =
      "Zipf skew of query popularity over the 113-statement catalog (0 = \
       uniform)."
    in
    Arg.(value & opt float 1.1 & info [ "zipf-theta" ] ~docv:"T" ~doc)
  in
  let think_arg =
    let doc =
      "Mean client think time between requests, in wall-clock milliseconds \
       (0 disables; applied identically in every arm)."
    in
    Arg.(value & opt float 0.0 & info [ "think-ms" ] ~docv:"MS" ~doc)
  in
  let cache_mb_arg =
    let doc = "Join-build recycling cache byte budget, in MiB." in
    Arg.(value & opt int 64 & info [ "cache-mb" ] ~docv:"MB" ~doc)
  in
  let inflight_arg =
    let doc =
      "Admission limit on concurrently executing queries (0 = the client \
       count)."
    in
    Arg.(value & opt int 0 & info [ "max-inflight" ] ~docv:"N" ~doc)
  in
  let budget_arg =
    let doc =
      "Per-session work budget in simulated work units; a session retires \
       once its cumulative work crosses it (0 = unlimited). Deterministic: \
       simulated work is scheduling-independent."
    in
    Arg.(value & opt int 0 & info [ "session-budget" ] ~docv:"W" ~doc)
  in
  let jobs_arg =
    let doc =
      "Worker domains serving sessions concurrently (1 = serial; 0 = the \
       number of cores). Replies are byte-identical at any value."
    in
    Arg.(value & opt int 0 & info [ "jobs"; "j" ] ~docv:"N" ~doc)
  in
  let json_arg =
    let doc = "Write the benchmark rows to $(docv)." in
    Arg.(value & opt string "BENCH_serve.json" & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let stats_flag =
    let doc = "After serving, print the pipeline's cache counters." in
    Arg.(value & flag & info [ "stats" ] ~doc)
  in
  let run scale seed data indexes estimator model engine_name clients duration
      theta think cache_mb inflight budget jobs exec_jobs json stats trace =
    let jobs =
      if jobs < 0 then invalid_arg "jobench serve: --jobs must be >= 0"
      else if jobs = 0 then Domain.recommended_domain_count ()
      else jobs
    in
    (* Same oversubscription cap as `experiment`: inter-query workers
       times morsel workers stays within the core budget. *)
    let exec_jobs =
      let requested = resolve_exec_jobs exec_jobs in
      if jobs <= 1 then requested
      else max 1 (min requested (Domain.recommended_domain_count () / jobs))
    in
    if duration < 1 then invalid_arg "jobench serve: --duration-queries must be >= 1";
    if cache_mb < 1 then invalid_arg "jobench serve: --cache-mb must be >= 1";
    let clients_list =
      String.split_on_char ',' clients |> List.map String.trim
      |> List.filter (fun s -> s <> "")
      |> List.map (fun s ->
             match int_of_string_opt s with
             | Some n when n >= 1 -> n
             | _ ->
                 invalid_arg
                   (Printf.sprintf "jobench serve: bad client count %S" s))
    in
    if clients_list = [] then invalid_arg "jobench serve: empty --clients";
    let engine = parse_engine engine_name in
    let serve_pool =
      if jobs > 1 then Some (Util.Domain_pool.create ~domains:jobs) else None
    in
    let exec_pool =
      if exec_jobs > 1 then Some (Util.Domain_pool.create ~domains:exec_jobs)
      else None
    in
    let shutdown = function
      | Some p -> Util.Domain_pool.shutdown p
      | None -> ()
    in
    Fun.protect
      ~finally:(fun () ->
        shutdown serve_pool;
        shutdown exec_pool)
      (fun () ->
        with_trace trace @@ fun () ->
        let s = session ?data ~seed ~scale ~indexes () in
        let statements =
          Array.of_list
            (List.map
               (fun q -> (q.Workload.Job.name, q.Workload.Job.sql))
               Workload.Job.all)
        in
        (* Bind and plan the whole catalog up front (through the
           pipeline's bind and plan caches), so the timed arms measure
           serving, not planning. *)
        let catalog =
          Serve.Engine.prepare s ~estimator ~cost_model:model statements
        in
        let rows =
          List.map
            (fun c ->
              let traffic =
                Serve.Traffic.generate ~sessions:c ~total:duration
                  ~catalog:(Array.length catalog) ~theta ~think_ms:think ~seed
              in
              let limit = if inflight = 0 then c else inflight in
              (* The serial uncached reference is the identity oracle
                 every timed arm must reproduce byte-for-byte. It also
                 doubles as the process warm-up (lazy index builds,
                 first-touch decompression, heap growth), so the timed
                 arms start from the same state. *)
              let reference =
                Serve.Engine.run s catalog traffic
                  {
                    Serve.Engine.engine;
                    cache = None;
                    exec_pool = None;
                    serve_pool = None;
                    max_inflight = 1;
                    session_budget = budget;
                  }
              in
              let concurrent cache =
                {
                  Serve.Engine.engine;
                  cache;
                  exec_pool;
                  serve_pool;
                  max_inflight = limit;
                  session_budget = budget;
                }
              in
              (* Timing discipline matches the storage/morsel sweeps —
                 full major collection before every pass, best-of-three
                 of a deterministic engine — with the off/on passes
                 interleaved (off, on, off, on, ...) so slow drift in
                 the GC climate lands on both arms alike. The repeat
                 equality is a free determinism check, folded into the
                 identity verdict. The cache-on arm shares one cache
                 across its passes: after the first, it serves with the
                 cache populated, so best-of-three measures steady-state
                 recycling. *)
              let pass cfg =
                Gc.full_major ();
                Serve.Engine.run s catalog traffic cfg
              in
              let off_cfg = concurrent None in
              let jc =
                Exec.Join_cache.create
                  ~budget_bytes:(cache_mb * 1024 * 1024) ()
              in
              let on_cfg = concurrent (Some jc) in
              let passes = 3 in
              let offs = Array.make passes None
              and ons = Array.make passes None in
              for i = 0 to passes - 1 do
                offs.(i) <- Some (pass off_cfg);
                ons.(i) <- Some (pass on_cfg)
              done;
              let get a i = Option.get a.(i) in
              let best a =
                let r = ref (get a 0) in
                for i = 1 to passes - 1 do
                  let c = get a i in
                  if c.Serve.Engine.wall_s < !r.Serve.Engine.wall_s then
                    r := c
                done;
                !r
              in
              let stable a =
                let ok = ref true in
                for i = 1 to passes - 1 do
                  ok :=
                    !ok
                    && Serve.Engine.replies_equal
                          (get a 0).Serve.Engine.replies
                          (get a i).Serve.Engine.replies
                done;
                !ok
              in
              let off = best offs and on = best ons in
              let off_stable = stable offs and on_stable = stable ons in
              let identity =
                off_stable && on_stable
                && Serve.Engine.replies_equal reference.Serve.Engine.replies
                     off.Serve.Engine.replies
                && Serve.Engine.replies_equal reference.Serve.Engine.replies
                     on.Serve.Engine.replies
              in
              if not identity then
                Printf.eprintf
                  "serve: replies diverged from the serial uncached \
                   reference at %d clients\n\
                   %!"
                  c;
              let cs = Exec.Join_cache.stats jc in
              let hit_rate = Exec.Join_cache.hit_rate cs in
              let row =
                {
                  Serve.Report.clients = c;
                  queries = on.Serve.Engine.completed;
                  on = Serve.Report.arm_of on;
                  off = Serve.Report.arm_of off;
                  cache = cs;
                  hit_rate;
                  retired_sessions = on.Serve.Engine.retired_sessions;
                  admission_peak = on.Serve.Engine.admission.Serve.Admission.peak;
                  identity;
                }
              in
              Printf.printf
                "clients %3d: on %8.1f q/s (p50 %6.2f ms, p95 %6.2f, p99 \
                 %6.2f) | off %8.1f q/s | speedup %5.2fx | hit rate %5.1f%% \
                 (%d hits, %d misses, %d evictions) | %s\n\
                 %!"
                c row.Serve.Report.on.Serve.Report.a_qps
                row.Serve.Report.on.Serve.Report.a_p50_ms
                row.Serve.Report.on.Serve.Report.a_p95_ms
                row.Serve.Report.on.Serve.Report.a_p99_ms
                row.Serve.Report.off.Serve.Report.a_qps
                (if row.Serve.Report.off.Serve.Report.a_qps <= 0.0 then 0.0
                 else
                   row.Serve.Report.on.Serve.Report.a_qps
                   /. row.Serve.Report.off.Serve.Report.a_qps)
                (100.0 *. hit_rate) cs.Exec.Join_cache.hits
                cs.Exec.Join_cache.misses cs.Exec.Join_cache.evictions
                (if identity then "identity ok" else "IDENTITY MISMATCH");
              row)
            clients_list
        in
        let out = open_out json in
        output_string out
          (Serve.Report.to_json ~scale ~seed ~theta ~cache_mb ~jobs ~exec_jobs
             ~cores:(Domain.recommended_domain_count ())
             rows);
        close_out out;
        Printf.printf "wrote %s\n%!" json;
        if stats then
          Printf.printf "--- %s\n%!"
            (Core.Pipeline.stats_summary (Core.Session.pipeline s));
        if List.exists (fun r -> not r.Serve.Report.identity) rows then exit 1)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve Zipfian query traffic from simulated concurrent clients and \
          benchmark throughput with cross-query join-build recycling")
    Term.(
      const run $ scale_arg $ seed_arg $ data_arg $ indexes_arg $ estimator_arg
      $ model_arg $ engine_arg $ clients_arg $ duration_arg $ theta_arg
      $ think_arg $ cache_mb_arg $ inflight_arg $ budget_arg $ jobs_arg
      $ exec_jobs_arg $ json_arg $ stats_flag $ trace_arg)

(* --- lint ----------------------------------------------------------------- *)

let lint_cmd =
  let root_arg =
    let doc =
      "Directory whose lib/, bin/ and bench/ the source pass scans."
    in
    Arg.(value & opt string "." & info [ "root" ] ~docv:"DIR" ~doc)
  in
  let report_arg =
    let doc = "Write a machine-readable JSON lint report to $(docv)." in
    Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE" ~doc)
  in
  let workload_only_arg =
    let doc = "Lint only the workload query graphs (the @verify gate)." in
    Arg.(value & flag & info [ "workload-only" ] ~doc)
  in
  let run root report workload_only =
    let code =
      if workload_only then Lintkit.Driver.run_workload_only ()
      else Lintkit.Driver.run ?report ~root ()
    in
    if code <> 0 then exit code
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the domlint source pass and the workload query-graph lint \
          under one report")
    Term.(const run $ root_arg $ report_arg $ workload_only_arg)

let () =
  let doc = "Join Order Benchmark reproduction toolkit" in
  let info = Cmd.info "jobench" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; show_cmd; plan_cmd; run_cmd; trace_cmd; generate_cmd;
            stats_cmd; estimate_cmd; verify_cmd; experiment_cmd; serve_cmd;
            lint_cmd ]))
