(* Domlint: every rule demonstrated three ways — catching a seeded
   violation in a fixture, passing the clean counterpart, and honoring a
   suppression — plus a synthetic lock-order cycle R4 must reject and
   the real tree's scan, which must come back at zero unsuppressed
   violations with an acyclic lock graph. Fixtures are written next to
   the test binary (the dune sandbox), one file per scenario, named so
   their module names cannot collide. *)

module Violation = Verify.Violation

let fixture_dir = "domlint_fixtures"

let write_fixture name lines =
  if not (Sys.file_exists fixture_dir) then Sys.mkdir fixture_dir 0o755;
  let path = Filename.concat fixture_dir name in
  let oc = open_out path in
  output_string oc (String.concat "\n" lines);
  output_char oc '\n';
  close_out oc;
  path

let scan ?(allow = []) names_and_lines =
  Domlint.scan ~allow
    (List.map (fun (name, lines) -> write_fixture name lines) names_and_lines)

let has_pass pass (r : Domlint.report) =
  List.exists
    (fun (v : Violation.t) -> String.equal v.Violation.pass pass)
    r.Domlint.result.Violation.violations

let suppressed_of rule (r : Domlint.report) =
  match
    List.find_opt
      (fun (s : Domlint.rule_stat) -> String.equal s.Domlint.rule rule)
      r.Domlint.stats
  with
  | Some s -> s.Domlint.suppressed
  | None -> 0

let check_ok label r = Alcotest.(check bool) label true (Domlint.ok r)

let check_flagged label pass r =
  Alcotest.(check bool) label true (has_pass pass r)

(* --- R1: module-toplevel mutable state ------------------------------ *)

let r1 = "domlint/R1-toplevel-mutable-state"

let test_r1 () =
  check_flagged "bare toplevel Hashtbl flagged" r1
    (scan
       [
         ( "dlt_r1_bad.ml",
           [
             "let table = Hashtbl.create 7";
             "let lookup k = Hashtbl.find_opt table k";
           ] );
       ]);
  check_flagged "bare toplevel ref flagged" r1
    (scan [ ("dlt_r1_ref.ml", [ "let hits = ref 0" ]) ]);
  check_ok "Atomic counter and local state clean"
    (scan
       [
         ( "dlt_r1_ok.ml",
           [
             "let counter = Atomic.make 0";
             "let bump () = Atomic.incr counter";
             "let scratch () = Hashtbl.create 7";
           ] );
       ]);
  let r =
    scan
      [
        ( "dlt_r1_sup.ml",
          [
            "(* domlint: safe R1 — fixture: written once before any \
             domain spawns *)";
            "let table = Hashtbl.create 7";
          ] );
      ]
  in
  check_ok "annotated Hashtbl suppressed" r;
  Alcotest.(check int) "suppression counted" 1
    (suppressed_of "R1-toplevel-mutable-state" r)

let test_r1_allowlist () =
  let allow =
    [
      {
        Domlint.Suppress.rule = "R1";
        file = "dlt_r1_allow.ml";
        symbol = "table";
        reason = "fixture: whole-file exemption";
      };
    ]
  in
  check_ok "allowlist entry suppresses"
    (scan ~allow [ ("dlt_r1_allow.ml", [ "let table = Hashtbl.create 7" ]) ]);
  (* The same entry against a clean file is stale — and reported. *)
  check_flagged "stale allowlist entry reported" "domlint/allowlist"
    (scan ~allow [ ("dlt_r1_allow.ml", [ "let version = 3" ]) ])

(* --- R2: lazy outside Util.Once ------------------------------------- *)

let r2 = "domlint/R2-lazy"

let test_r2 () =
  check_flagged "toplevel lazy flagged" r2
    (scan [ ("dlt_r2_bad.ml", [ "let v = lazy (1 + 2)" ]) ]);
  check_flagged "Lazy.force flagged" r2
    (scan [ ("dlt_r2_force.ml", [ "let get v = Lazy.force v" ]) ]);
  check_ok "no lazy clean" (scan [ ("dlt_r2_ok.ml", [ "let v = 42" ]) ]);
  check_ok "annotated lazy suppressed"
    (scan
       [
         ( "dlt_r2_sup.ml",
           [
             "(* domlint: safe R2 — fixture: forced before domains spawn *)";
             "let v = lazy (1 + 2)";
           ] );
       ])

(* --- R3: global Random outside Util.Prng ----------------------------- *)

let r3 = "domlint/R3-global-random"

let test_r3 () =
  check_flagged "global Random flagged" r3
    (scan [ ("dlt_r3_bad.ml", [ "let noise () = Random.int 100" ]) ]);
  check_ok "no Random clean"
    (scan [ ("dlt_r3_ok.ml", [ "let noise () = 4" ]) ]);
  check_ok "annotated Random suppressed"
    (scan
       [
         ( "dlt_r3_sup.ml",
           [
             "(* domlint: safe R3 — fixture: bench-only, single domain *)";
             "let noise () = Random.int 100";
           ] );
       ])

(* --- R5: Domain.spawn outside Util.Domain_pool ----------------------- *)

let r5 = "domlint/R5-domain-spawn"

let test_r5 () =
  check_flagged "Domain.spawn flagged" r5
    (scan [ ("dlt_r5_bad.ml", [ "let worker f = Domain.spawn f" ]) ]);
  check_ok "no spawn clean"
    (scan [ ("dlt_r5_ok.ml", [ "let worker f = f ()" ]) ]);
  check_ok "annotated spawn suppressed"
    (scan
       [
         ( "dlt_r5_sup.ml",
           [
             "(* domlint: safe R5 — fixture: supervised one-shot domain *)";
             "let worker f = Domain.spawn f";
           ] );
       ])

(* --- R6: scheduler atomics outside the pool / morsel scheduler ------- *)

let r6 = "domlint/R6-scheduler-state"

let test_r6 () =
  check_flagged "Atomic.fetch_and_add flagged" r6
    (scan
       [
         ( "dlt_r6_bad.ml",
           [
             "let next = Atomic.make 0";
             "let claim () = Atomic.fetch_and_add next 1";
           ] );
       ]);
  check_ok "plain Atomic get/set clean"
    (scan
       [
         ( "dlt_r6_ok.ml",
           [
             "let flag = Atomic.make false";
             "let trip () = Atomic.set flag true";
           ] );
       ]);
  check_ok "annotated counter suppressed"
    (scan
       [
         ( "dlt_r6_sup.ml",
           [
             "let hits = Atomic.make 0";
             "(* domlint: safe R6 — fixture: monotone telemetry counter *)";
             "let note () = ignore (Atomic.fetch_and_add hits 1)";
           ] );
       ]);
  let allow =
    [
      {
        Domlint.Suppress.rule = "R6";
        file = "dlt_r6_allow.ml";
        symbol = "*";
        reason = "fixture: telemetry counters, not work distribution";
      };
    ]
  in
  let r =
    scan ~allow
      [
        ( "dlt_r6_allow.ml",
          [
            "let hits = Atomic.make 0";
            "let note () = ignore (Atomic.fetch_and_add hits 1)";
          ] );
      ]
  in
  check_ok "allowlist entry suppresses" r;
  Alcotest.(check int) "suppression counted" 1
    (suppressed_of "R6-scheduler-state" r)

(* --- R7: serving state confined to lib/serve -------------------------- *)

let r7 = "domlint/R7-serving-state"

let test_r7 () =
  check_flagged "toplevel session atomic flagged" r7
    (scan
       [
         ( "dlt_r7_bad.ml",
           [
             "let sessions = Atomic.make 0";
             "let bump () = Atomic.incr sessions";
           ] );
       ]);
  check_flagged "mutable inflight record field flagged" r7
    (scan
       [
         ( "dlt_r7_rec.ml",
           [
             "type gate = { mutable inflight : int }";
             "(* domlint: safe R1 — fixture: exercising R7's own check *)";
             "let gate = { inflight = 0 }";
           ] );
       ]);
  check_ok "pure bindings and per-call state clean"
    (scan
       [
         ( "dlt_r7_ok.ml",
           [
             "let session_label = \"sess\"";
             "let make_session () = Atomic.make 0";
           ] );
       ]);
  let r =
    scan
      [
        ( "dlt_r7_sup.ml",
          [
            "(* domlint: safe R7 — fixture: single-domain bench helper *)";
            "let session_count = Atomic.make 0";
          ] );
      ]
  in
  check_ok "annotated serving state suppressed" r;
  Alcotest.(check int) "suppression counted" 1
    (suppressed_of "R7-serving-state" r)

let test_r7_allowlist () =
  let allow =
    [
      {
        Domlint.Suppress.rule = "R7";
        file = "dlt_r7_allow.ml";
        symbol = "session_count";
        reason = "fixture: migration grace period";
      };
    ]
  in
  check_ok "allowlist entry suppresses"
    (scan ~allow
       [ ("dlt_r7_allow.ml", [ "let session_count = Atomic.make 0" ]) ])

let test_r7_confined () =
  (* A fixture placed under a lib/serve/ directory is the owning layer:
     the same binding that test_r7 flags must pass untouched. *)
  let lib = Filename.concat fixture_dir "lib" in
  let dir = Filename.concat lib "serve" in
  List.iter
    (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
    [ fixture_dir; lib; dir ];
  let path = Filename.concat dir "dlt_r7_conf.ml" in
  let oc = open_out path in
  output_string oc "let sessions = Atomic.make 0\n";
  close_out oc;
  check_ok "serving state inside lib/serve/ is exempt" (Domlint.scan [ path ])

(* --- R8: observability state confined to lib/obs ----------------------- *)

let r8 = "domlint/R8-observability-state"

let test_r8 () =
  check_flagged "toplevel span counter flagged" r8
    (scan
       [
         ( "dlt_r8_bad.ml",
           [
             "let span_count = Atomic.make 0";
             "let bump () = Atomic.incr span_count";
           ] );
       ]);
  check_flagged "mutable trace record field flagged" r8
    (scan
       [
         ( "dlt_r8_rec.ml",
           [
             "type sink = { mutable trace_bytes : int }";
             "(* domlint: safe R1 — fixture: exercising R8's own check *)";
             "let sink = { trace_bytes = 0 }";
           ] );
       ]);
  check_ok "pure bindings and per-call state clean"
    (scan
       [
         ( "dlt_r8_ok.ml",
           [
             "let trace_label = \"trace\"";
             "let make_span_buf () = Atomic.make 0";
           ] );
       ]);
  check_ok "cells registered through the Obs API sanctioned"
    (scan
       [
         ( "dlt_r8_api.ml",
           [ "let span_total = Obs.Metrics.counter \"exec.span_total\"" ] );
       ]);
  let r =
    scan
      [
        ( "dlt_r8_sup.ml",
          [
            "(* domlint: safe R8 — fixture: single-domain bench helper *)";
            "let metric_cell = Atomic.make 0";
          ] );
      ]
  in
  check_ok "annotated observability state suppressed" r;
  Alcotest.(check int) "suppression counted" 1
    (suppressed_of "R8-observability-state" r)

let test_r8_confined () =
  (* The same binding test_r8 flags must pass untouched when the file
     lives under lib/obs/ — the owning layer. *)
  let lib = Filename.concat fixture_dir "lib" in
  let dir = Filename.concat lib "obs" in
  List.iter
    (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
    [ fixture_dir; lib; dir ];
  let path = Filename.concat dir "dlt_r8_conf.ml" in
  let oc = open_out path in
  output_string oc "let span_count = Atomic.make 0\n";
  close_out oc;
  check_ok "observability state inside lib/obs/ is exempt"
    (Domlint.scan [ path ])

(* --- annotation hygiene ---------------------------------------------- *)

let test_annotation_hygiene () =
  check_flagged "reason-less annotation reported" "domlint/annotation"
    (scan [ ("dlt_ann_bad.ml", [ "(* domlint: safe *)"; "let v = 1" ]) ]);
  check_flagged "domlint typo reported" "domlint/annotation"
    (scan [ ("dlt_ann_typo.ml", [ "(* domlint: sofe — oops *)"; "let v = 1" ]) ]);
  check_flagged "unparsable file reported" "domlint/parse"
    (scan [ ("dlt_parse_bad.ml", [ "let let let" ]) ])

(* --- R4: lock-order cycles ------------------------------------------- *)

let r4 = "domlint/R4-lock-order"

let test_r4_cycle () =
  (* Dlt_locka locks its mutex then calls Dlt_lockb.g, which locks its
     own mutex then calls Dlt_locka.f: a classic ABBA deadlock. *)
  let r =
    scan
      [
        ( "dlt_locka.ml",
          [
            "let m = Mutex.create ()";
            "let f () = Mutex.lock m; Dlt_lockb.g (); Mutex.unlock m";
          ] );
        ( "dlt_lockb.ml",
          [
            "let m = Mutex.create ()";
            "let g () = Mutex.lock m; Dlt_locka.f (); Mutex.unlock m";
          ] );
      ]
  in
  check_flagged "ABBA lock cycle rejected" r4 r

let test_r4_acyclic () =
  (* One direction only: an edge, but no cycle. *)
  let r =
    scan
      [
        ( "dlt_locky.ml",
          [ "let m = Mutex.create ()"; "let g () = Mutex.protect m ignore" ]
        );
        ( "dlt_lockx.ml",
          [
            "let m = Mutex.create ()";
            "let f () = Mutex.lock m; Dlt_locky.g (); Mutex.unlock m";
          ] );
      ]
  in
  check_ok "one-directional lock nesting clean" r;
  Alcotest.(check bool) "the nesting edge is recorded" true
    (List.exists
       (fun (a, b, _) ->
         String.equal a "Dlt_lockx" && String.equal b "Dlt_locky")
       r.Domlint.lock_edges)

(* --- the real tree ---------------------------------------------------- *)

let test_real_tree () =
  (* Under `dune runtest` the binary runs in _build/default/test with
     the dune deps copying lib/, bin/ and bench/ one level up; under
     `dune exec` it runs from the workspace root. Probe for the tree.
     Same scan and allowlist as `dune build @lint` — this is the gate's
     own regression test. *)
  let root =
    List.find
      (fun root ->
        Sys.file_exists (Filename.concat root "lib/util/once.ml"))
      [ ".."; "." ]
  in
  let r = Domlint.scan_tree ~allow:Lintkit.Allowlist.entries ~root () in
  Alcotest.(check bool) "scanned a substantial tree" true (r.Domlint.files > 50);
  (match r.Domlint.result.Violation.violations with
  | [] -> ()
  | vs ->
      Alcotest.failf "real tree has %d domlint violations, first: %s"
        (List.length vs)
        (Violation.to_string (List.hd vs)));
  Alcotest.(check bool) "real lock graph is acyclic (R4 reported nothing)"
    true
    (not (has_pass r4 r));
  (* The exact set: a lost edge means the graph went blind, a new one
     is a lock nesting nobody has reviewed. *)
  Alcotest.(check (list (pair string string)))
    "lock graph has exactly the known nesting edges"
    [ ("Database", "Once"); ("Harness", "Domain_pool") ]
    (List.sort_uniq compare
       (List.map (fun (a, b, _) -> (a, b)) r.Domlint.lock_edges))

let suite =
  [
    Alcotest.test_case "R1 toplevel mutable state" `Quick test_r1;
    Alcotest.test_case "R1 allowlist + stale entries" `Quick test_r1_allowlist;
    Alcotest.test_case "R2 lazy" `Quick test_r2;
    Alcotest.test_case "R3 global Random" `Quick test_r3;
    Alcotest.test_case "R5 Domain.spawn" `Quick test_r5;
    Alcotest.test_case "R6 scheduler atomics" `Quick test_r6;
    Alcotest.test_case "R7 serving state" `Quick test_r7;
    Alcotest.test_case "R7 allowlist" `Quick test_r7_allowlist;
    Alcotest.test_case "R7 lib/serve exempt" `Quick test_r7_confined;
    Alcotest.test_case "R8 observability state" `Quick test_r8;
    Alcotest.test_case "R8 lib/obs exempt" `Quick test_r8_confined;
    Alcotest.test_case "annotation hygiene" `Quick test_annotation_hygiene;
    Alcotest.test_case "R4 rejects lock cycle" `Quick test_r4_cycle;
    Alcotest.test_case "R4 accepts acyclic nesting" `Quick test_r4_acyclic;
    Alcotest.test_case "real tree is clean" `Quick test_real_tree;
  ]
