(* Tests for the end-to-end benchmark: its order statistics, the
   compare verdicts, the answer files, and a smoke run of every workload
   on a tiny database that must report every metric BENCHMARK.json
   names. *)

open E2e

let spec_path = "../../../BENCHMARK.json"
let golden_dir = "../golden"

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)

let test_tail_rank () =
  List.iter
    (fun (n, q) ->
      Alcotest.(check (float 0.0)) (Printf.sprintf "tail quantile at n=%d" n) q
        (Stats.tail_quantile n);
      let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
      Alcotest.(check bool) "at least ten samples beyond" true (n - rank >= 10);
      let prng = Util.Prng.create n in
      let sample = Array.init n (fun _ -> Util.Prng.float prng 1000.0) in
      let sorted = Array.copy sample in
      Array.sort compare sorted;
      Alcotest.(check (float 0.0)) "nearest rank matches Obs.Histogram.percentile"
        sorted.(rank - 1)
        (Obs.Histogram.percentile sample q))
    [ (113, 0.9); (226, 0.95); (1000, 0.99) ]

(* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
let test_quartiles () =
  let values = List.init 10 (fun i -> float_of_int (i + 1)) in
  let q1, q3 = Stats.quartiles values in
  Alcotest.(check (float 1e-12)) "q1" 2.75 q1;
  Alcotest.(check (float 1e-12)) "q3" 8.25 q3;
  Alcotest.(check (float 1e-12)) "median" 5.5 (Stats.median values);
  Alcotest.(check (float 1e-12)) "spread" (5.5 /. 5.5) (Stats.spread values)

(* ------------------------------------------------------------------ *)
(* compare                                                             *)

let steady = [ 100.0; 101.0; 99.0; 100.5; 99.5; 100.0; 101.5; 98.5; 100.0; 100.2 ]
let scaled k = List.map (fun v -> v *. k) steady
let noisy = [ 60.0; 140.0; 80.0; 120.0; 100.0; 70.0; 130.0; 90.0; 110.0; 100.0 ]

let test_verdicts () =
  let lower = { Compare.name = "p50_ms"; lower_is_better = true; bound = 0.1 } in
  let higher = { lower with Compare.name = "qps"; lower_is_better = false } in
  let verdict = Alcotest.testable (Fmt.of_to_string Compare.verdict_name) ( = ) in
  let check msg expected m base next =
    Alcotest.check verdict msg expected (Compare.judge m ~base ~next)
  in
  check "same runs" Compare.Pass lower steady steady;
  check "5% slower is within 10%" Compare.Pass lower steady (scaled 1.05);
  check "20% slower" Compare.Regressed lower steady (scaled 1.2);
  check "20% less throughput" Compare.Regressed higher steady (scaled 0.8);
  check "20% more throughput" Compare.Pass higher steady (scaled 1.2);
  check "spread wider than the bound" Compare.Unresolved lower noisy noisy;
  check "every new run better despite the spread" Compare.Pass lower noisy
    (List.map (fun v -> v /. 4.0) noisy);
  let setup = { lower with Compare.name = "setup_s"; bound = 0.25 } in
  check "setup_s is judged by its median alone" Compare.Pass setup noisy noisy;
  check "setup_s still regresses" Compare.Regressed setup noisy
    (List.map (fun v -> v *. 1.3) noisy)

let test_failed_rows () =
  let run failed =
    {
      Compare.workload = "adhoc";
      trace = false;
      attempted = 100;
      failed;
      values = [ ("qps", 10.0) ];
    }
  in
  let metrics = [ { Compare.name = "qps"; lower_is_better = false; bound = 0.1 } ] in
  let rows base next = Compare.rows metrics ~base:[ base; base ] ~next:[ next; next ] in
  let failed_verdict rows =
    (List.find (fun r -> r.Compare.r_metric = "failed_share") rows).Compare.r_verdict
  in
  Alcotest.(check bool) "no new failures" true
    (failed_verdict (rows (run 0) (run 0)) = Compare.Pass);
  Alcotest.(check bool) "one more failure regresses" true
    (failed_verdict (rows (run 0) (run 1)) = Compare.Regressed)

(* ------------------------------------------------------------------ *)
(* Answer check                                                        *)

let test_raised_fails_run () =
  let side = Bench.new_side () in
  let _ : int =
    Bench.tally side (Hashtbl.create 1)
      [ { Bench.r_query = "1a"; r_outcome = Bench.Raised "Failure(\"injected\")" } ]
  in
  Alcotest.(check bool) "a clean side passes" true (Bench.all_answered [ Bench.new_side () ]);
  Alcotest.(check bool) "a raised statement fails the run" false
    (Bench.all_answered [ Bench.new_side (); side ])

(* ------------------------------------------------------------------ *)
(* Answer files                                                        *)

let test_golden_round_trip () =
  let answers =
    [
      ("1a", { Golden.rows = 7; mins = [ "'Nova Film 749'"; "with \"quotes\"\tand tab" ] });
      ("2b", { Golden.rows = 0; mins = [ "NULL" ] });
      ("13d", { Golden.rows = 123456; mins = [] });
    ]
  in
  let path = "round-trip.txt" in
  Golden.write_answers path answers;
  Alcotest.(check bool) "answers round-trip" true (Golden.read_answers path = answers);
  let digests = [ ("1a", Digest.to_hex (Digest.string "x")); ("33c", "00ff") ] in
  Golden.write_digests path digests;
  Alcotest.(check bool) "digests round-trip" true (Golden.read_digests path = digests);
  Sys.remove path;
  let committed = Golden.read_answers (Golden.answers_file ~dir:golden_dir ~scale:0.005) in
  Alcotest.(check int) "every JOB query has a committed answer" 113 (List.length committed)

(* ------------------------------------------------------------------ *)
(* Smoke run                                                           *)

let spec_names key =
  List.map
    (fun m -> (Json.to_str (Json.member "name" m), Json.to_str (Json.member "unit" m)))
    (Json.to_list (Json.member key (Json.read_file spec_path)))

let test_smoke () =
  let e2e = spec_names "end_to_end" and layer = spec_names "per_layer" in
  Alcotest.(check bool) "BENCHMARK.json names the code's end-to-end metrics" true
    (e2e = Bench.end_to_end_units);
  Alcotest.(check bool) "BENCHMARK.json names the code's per-layer metrics" true
    (layer = Bench.per_layer_units);
  List.iter
    (fun (name, workload) ->
      List.iter
        (fun trace ->
          let r =
            Bench.run
              { Bench.workload; seed = 7; seconds = 0.0; trace; smoke = true; golden_dir }
          in
          let what = Printf.sprintf "%s trace=%b" name trace in
          Alcotest.(check bool) (what ^ ": answers correct") true r.Bench.correct;
          Alcotest.(check int) (what ^ ": nothing failed") 0 r.Bench.failed;
          Alcotest.(check bool) (what ^ ": attempted") true (r.Bench.attempted > 0);
          let names = List.map fst (if trace then layer else e2e) in
          Alcotest.(check (list string)) (what ^ ": every metric reported") names
            (List.map fst r.Bench.metrics);
          let value k = List.assoc k r.Bench.metrics in
          if not trace then
            List.iter
              (fun k -> Alcotest.(check bool) (what ^ ": " ^ k ^ " > 0") true (value k > 0.0))
              names
          else begin
            Alcotest.(check (float 0.0)) (what ^ ": no dropped spans") 0.0
              (value "obs.dropped_spans");
            Alcotest.(check bool) (what ^ ": top-level coverage") true
              (value "obs.coverage" >= 0.95);
            match workload with
            | Bench.Serve_zipf ->
                Alcotest.(check bool) "serve: join-cache hits" true
                  (value "exec.join_cache.hit_rate" > 0.0);
                Alcotest.(check (float 0.0)) "serve: no plan misses" 0.0
                  (value "core.plan_misses")
            | Bench.Adhoc ->
                Alcotest.(check (float 0.0)) "adhoc: no plan hits" 0.0 (value "core.plan_hits")
            | Bench.Optimizer_matrix ->
                Alcotest.(check (float 0.0)) "matrix: 18 plans per query"
                  (float_of_int (18 * List.length Bench.smoke_queries))
                  (value "planner.plans")
          end)
        [ false; true ])
    Bench.workloads

let () =
  Alcotest.run "e2e"
    [
      ( "stats",
        [
          Alcotest.test_case "tail rank" `Quick test_tail_rank;
          Alcotest.test_case "quartiles as Python" `Quick test_quartiles;
        ] );
      ( "compare",
        [
          Alcotest.test_case "verdicts" `Quick test_verdicts;
          Alcotest.test_case "failed share" `Quick test_failed_rows;
        ] );
      ( "golden",
        [
          Alcotest.test_case "raised fails the run" `Quick test_raised_fails_run;
          Alcotest.test_case "round trip" `Quick test_golden_round_trip;
        ] );
      ("smoke", [ Alcotest.test_case "all workloads" `Quick test_smoke ]);
    ]
