(* The serving layer: deterministic traffic scripts, the golden-workload
   identity (replies byte-identical with the join-build recycling cache
   on and off, serial and under serve/exec pools), forced evictions
   under a tiny byte budget — with vacuousness guards on hits and
   evictions — and the admission gate and per-session work budget. *)

module Engine = Serve.Engine
module Traffic = Serve.Traffic
module Admission = Serve.Admission

let with_pool domains f =
  let pool = Util.Domain_pool.create ~domains in
  Fun.protect
    ~finally:(fun () -> Util.Domain_pool.shutdown pool)
    (fun () -> f pool)

let engine = { Exec.Engine_config.robust with name = "serve test" }

(* One prepared session + catalog shared by the serving tests. *)
let fixture =
  lazy
    (let db = Datagen.Imdb_gen.generate ~seed:5 ~scale:0.0004 () in
     let s = Core.Session.of_database db in
     let catalog =
       Engine.prepare s
         (Array.of_list
            (List.map
               (fun (q : Workload.Job.query) ->
                 (q.Workload.Job.name, q.Workload.Job.sql))
               Workload.Job.all))
     in
     (s, catalog))

let cfg ?cache ?exec_pool ?serve_pool ?(max_inflight = 1)
    ?(session_budget = 0) () =
  { Engine.engine; cache; exec_pool; serve_pool; max_inflight; session_budget }

let traffic catalog =
  Traffic.generate ~sessions:4 ~total:150 ~catalog:(Array.length catalog)
    ~theta:1.2 ~think_ms:0.0 ~seed:11

(* --- traffic ----------------------------------------------------------- *)

let test_traffic_deterministic () =
  let gen seed =
    Traffic.generate ~sessions:4 ~total:100 ~catalog:113 ~theta:1.1
      ~think_ms:2.0 ~seed
  in
  let t1 = gen 42 and t2 = gen 42 and t3 = gen 43 in
  Alcotest.(check bool) "same seed, same scripts" true
    (t1.Traffic.scripts = t2.Traffic.scripts);
  Alcotest.(check bool) "different seed differs" true
    (t1.Traffic.scripts <> t3.Traffic.scripts);
  Alcotest.(check int) "sessions" 4 (Traffic.sessions t1);
  Alcotest.(check int) "total" 100 (Traffic.total t1);
  Array.iter
    (Array.iter (fun (r : Traffic.request) ->
         Alcotest.(check bool) "query in catalog" true
           (r.Traffic.r_query >= 0 && r.Traffic.r_query < 113);
         Alcotest.(check bool) "think time in [0, 2*mean)" true
           (r.Traffic.r_think_ms >= 0.0 && r.Traffic.r_think_ms < 4.0)))
    t1.Traffic.scripts;
  List.iter
    (fun q ->
      Alcotest.(check bool) "distinct query in catalog" true
        (q >= 0 && q < 113))
    (Traffic.distinct_queries t1)

let test_traffic_split () =
  let t =
    Traffic.generate ~sessions:4 ~total:10 ~catalog:7 ~theta:0.0
      ~think_ms:0.0 ~seed:3
  in
  let sizes = Array.map Array.length t.Traffic.scripts in
  Alcotest.(check (array int)) "remainder goes to early sessions"
    [| 3; 3; 2; 2 |] sizes;
  Array.iter
    (Array.iter (fun (r : Traffic.request) ->
         Alcotest.(check (Alcotest.float 0.0)) "think time disabled" 0.0
           r.Traffic.r_think_ms))
    t.Traffic.scripts;
  Alcotest.check_raises "sessions < 1 rejected"
    (Invalid_argument "Traffic.generate: sessions must be >= 1") (fun () ->
      ignore
        (Traffic.generate ~sessions:0 ~total:1 ~catalog:1 ~theta:0.0
           ~think_ms:0.0 ~seed:1))

(* --- admission --------------------------------------------------------- *)

let test_admission () =
  let gate = Admission.create ~limit:2 in
  Admission.acquire gate;
  Admission.acquire gate;
  Admission.release gate;
  Admission.acquire gate;
  Admission.release gate;
  Admission.release gate;
  let s = Admission.stats gate in
  Alcotest.(check int) "peak is the high-water mark" 2 s.Admission.peak;
  Alcotest.(check int) "no serial acquire ever blocked" 0 s.Admission.waits;
  Alcotest.check_raises "limit < 1 rejected"
    (Invalid_argument "Admission.create: limit must be >= 1") (fun () ->
      ignore (Admission.create ~limit:0))

(* --- the serving identity (tentpole acceptance) ------------------------ *)

let test_serve_identity () =
  let s, catalog = Lazy.force fixture in
  let t = traffic catalog in
  let reference = Engine.run s catalog t (cfg ()) in
  Alcotest.(check int) "reference completed everything"
    (Traffic.total t) reference.Engine.completed;
  (* Cache on, still serial: byte-identical, and actually hitting. *)
  let cache = Exec.Join_cache.create () in
  let on = Engine.run s catalog t (cfg ~cache ()) in
  Alcotest.(check bool) "cache-on replies identical (serial)" true
    (Engine.replies_equal reference.Engine.replies on.Engine.replies);
  let cs = Exec.Join_cache.stats cache in
  Alcotest.(check bool) "cache was not vacuous: hits recorded" true
    (cs.Exec.Join_cache.hits > 0);
  Alcotest.(check bool) "cache was populated" true
    (cs.Exec.Join_cache.installs > 0);
  (* Cache on, 2 serving workers, admission 2 (inter-query concurrency). *)
  with_pool 2 (fun sp ->
      let cache = Exec.Join_cache.create () in
      let out =
        Engine.run s catalog t
          (cfg ~cache ~serve_pool:sp ~max_inflight:2 ())
      in
      Alcotest.(check bool) "cache-on replies identical (serve pool)" true
        (Engine.replies_equal reference.Engine.replies out.Engine.replies);
      Alcotest.(check bool) "admission bounded in-flight" true
        (out.Engine.admission.Admission.peak <= 2));
  (* Cache off under the serve pool: concurrency alone changes nothing. *)
  with_pool 2 (fun sp ->
      let out =
        Engine.run s catalog t (cfg ~serve_pool:sp ~max_inflight:2 ())
      in
      Alcotest.(check bool) "cache-off replies identical (serve pool)" true
        (Engine.replies_equal reference.Engine.replies out.Engine.replies));
  (* Cache on with intra-query morsels (exec-jobs 2). *)
  with_pool 2 (fun ep ->
      let cache = Exec.Join_cache.create () in
      let out = Engine.run s catalog t (cfg ~cache ~exec_pool:ep ()) in
      Alcotest.(check bool) "cache-on replies identical (exec-jobs 2)" true
        (Engine.replies_equal reference.Engine.replies out.Engine.replies))

(* --- forced evictions -------------------------------------------------- *)

let test_forced_evictions () =
  let s, catalog = Lazy.force fixture in
  let t = traffic catalog in
  (* Measure the workload's full footprint, then rerun with a quarter of
     it: the LRU must evict, keep serving hits, and stay byte-exact. *)
  let full = Exec.Join_cache.create () in
  let reference = Engine.run s catalog t (cfg ~cache:full ()) in
  let footprint = (Exec.Join_cache.stats full).Exec.Join_cache.bytes in
  Alcotest.(check bool) "footprint measured" true (footprint > 0);
  let tiny = Exec.Join_cache.create ~budget_bytes:(max 1 (footprint / 4)) () in
  let out = Engine.run s catalog t (cfg ~cache:tiny ()) in
  Alcotest.(check bool) "replies identical under eviction pressure" true
    (Engine.replies_equal reference.Engine.replies out.Engine.replies);
  let cs = Exec.Join_cache.stats tiny in
  Alcotest.(check bool) "evictions actually happened" true
    (cs.Exec.Join_cache.evictions > 0);
  Alcotest.(check bool) "hits survive eviction pressure" true
    (cs.Exec.Join_cache.hits > 0);
  Alcotest.(check bool) "budget respected after the run" true
    (cs.Exec.Join_cache.bytes <= cs.Exec.Join_cache.budget_bytes)

(* --- per-session work budgets ------------------------------------------ *)

let test_session_budget () =
  let s, catalog = Lazy.force fixture in
  let t =
    Traffic.generate ~sessions:3 ~total:12 ~catalog:(Array.length catalog)
      ~theta:1.2 ~think_ms:0.0 ~seed:7
  in
  (* Every JOB query costs more than one work unit, so a budget of 1
     retires each session after its first reply. *)
  let out = Engine.run s catalog t (cfg ~session_budget:1 ()) in
  Alcotest.(check int) "every session retired" 3 out.Engine.retired_sessions;
  Array.iter
    (fun script ->
      Alcotest.(check int) "each session completed exactly one request" 1
        (Array.length script))
    out.Engine.replies;
  Alcotest.(check int) "completed counts the prefix replies" 3
    out.Engine.completed;
  Alcotest.check_raises "max_inflight < 1 rejected"
    (Invalid_argument "Engine.run: max_inflight must be >= 1") (fun () ->
      ignore (Engine.run s catalog t (cfg ~max_inflight:0 ())))

let suite =
  [
    Alcotest.test_case "traffic deterministic" `Quick
      test_traffic_deterministic;
    Alcotest.test_case "traffic split and bounds" `Quick test_traffic_split;
    Alcotest.test_case "admission gate" `Quick test_admission;
    Alcotest.test_case "serving identity: cache on/off, pools" `Slow
      test_serve_identity;
    Alcotest.test_case "forced evictions under a tiny budget" `Slow
      test_forced_evictions;
    Alcotest.test_case "session budget retires sessions" `Quick
      test_session_budget;
  ]
