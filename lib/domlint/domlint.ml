(* Domlint: a domain-safety static-analysis pass over the source tree
   itself — the source-code sibling of the plan/estimate/cost sanitizers
   in lib/verify. It parses every .ml under lib/, bin/ and bench/ with
   compiler-libs and enforces the concurrency invariants the multicore
   harness depends on:

     R1  no bare module-toplevel mutable state
     R2  no lazy/Lazy.* outside Util.Once's implementation
     R3  no global Random.* outside Util.Prng's implementation
     R4  the cross-module lock-nesting graph must be acyclic
     R5  no Domain.spawn outside Util.Domain_pool's implementation
     R6  no Atomic.fetch_and_add (shared scheduler state) outside
         Util.Domain_pool's and Exec.Morsel's implementations
     R7  serving-session bookkeeping (session/conn/admission/inflight/
         lru-named state) confined to lib/serve and Exec.Join_cache
     R8  observability state (metric/span/trace/telemetry-named state)
         confined to lib/obs; registering cells through the Obs API is
         sanctioned

   Findings report through {!Verify.Violation}, so `jobench lint` can
   print source findings and workload-graph findings in one format.
   Suppressions (inline annotations and the committed allowlist) are
   documented in {!Suppress}. *)

module Suppress = Suppress
module Source = Source
module Rules = Rules
module Lock_graph = Lock_graph
module Violation = Verify.Violation

type rule_stat = {
  rule : string;  (** e.g. "R1-toplevel-mutable-state" *)
  checks : int;
  violations : int;
  suppressed : int;
}

type report = {
  files : int;
  result : Violation.result;  (** merged, post-suppression *)
  stats : rule_stat list;  (** per rule, reporting order *)
  lock_edges : (string * string * string) list;  (** from, to, site *)
}

let ok r = Violation.ok r.result

(* The directories the issue scopes the pass to. *)
let default_dirs = [ "lib"; "bin"; "bench" ]

let files_under ?(dirs = default_dirs) ~root () =
  Source.files_under ~root ~dirs

let scan ?(allow = []) paths =
  let allow = Suppress.allowlist allow in
  let parsed, parse_errors =
    List.fold_left
      (fun (ok, errs) path ->
        match Source.parse path with
        | Ok f -> (f :: ok, errs)
        | Error e -> (ok, e :: errs))
      ([], []) paths
  in
  let files = List.rev parsed in
  let parse_result =
    {
      Violation.checks = List.length paths;
      violations =
        List.rev_map
          (fun (e : Source.parse_error) ->
            {
              Violation.pass = "domlint/parse";
              subject = Printf.sprintf "%s:%d" e.Source.err_path e.Source.err_line;
              message = e.Source.err_msg;
            })
          parse_errors;
    }
  in
  let mutable_fields = Rules.collect_mutable_fields files in
  let per_rule name f =
    let results = List.map f files in
    let checks = List.fold_left (fun a (r : Rules.rule_result) -> a + r.Rules.checks) 0 results in
    let suppressed =
      List.fold_left (fun a (r : Rules.rule_result) -> a + r.Rules.suppressed) 0 results
    in
    let violations = List.concat_map (fun (r : Rules.rule_result) -> r.Rules.kept) results in
    ( { rule = name; checks; violations = List.length violations; suppressed },
      { Violation.checks; violations } )
  in
  let r1 = per_rule "R1-toplevel-mutable-state" (Rules.check_r1 ~allow ~mutable_fields) in
  let owned name spec = per_rule name (Rules.check_owned ~allow spec) in
  let confined name spec =
    per_rule name (Rules.check_confined ~allow ~mutable_fields spec)
  in
  let r2 = owned "R2-lazy" Rules.r2 in
  let r3 = owned "R3-global-random" Rules.r3 in
  let graph = Lock_graph.build files in
  let r4_result = Lock_graph.check graph in
  let r4 =
    ( {
        rule = "R4-lock-order";
        checks = r4_result.Violation.checks;
        violations = List.length r4_result.Violation.violations;
        suppressed = 0;
      },
      r4_result )
  in
  let r5 = owned "R5-domain-spawn" Rules.r5 in
  let r6 = owned "R6-scheduler-state" Rules.r6 in
  let r7 = confined "R7-serving-state" Rules.r7 in
  let r8 = confined "R8-observability-state" Rules.r8 in
  let hygiene = per_rule "annotation" (fun f -> Rules.check_annotations f) in
  (* Allowlist entries that matched nothing are stale: report them so
     the committed list can only shrink as the tree gets cleaned. *)
  let stale =
    List.map
      (fun (e : Suppress.entry) ->
        {
          Violation.pass = "domlint/allowlist";
          subject = Printf.sprintf "%s/%s" e.Suppress.file e.Suppress.symbol;
          message =
            Printf.sprintf
              "stale allowlist entry (rule %s, reason: %s): it suppresses \
               nothing — delete it"
              e.Suppress.rule e.Suppress.reason;
        })
      (Suppress.unused allow)
  in
  let stale_result =
    {
      Violation.checks = Array.length allow.Suppress.entries;
      violations = stale;
    }
  in
  let stats_and_results = [ r1; r2; r3; r4; r5; r6; r7; r8; hygiene ] in
  let stats =
    List.map fst stats_and_results
    @ [
        {
          rule = "allowlist";
          checks = stale_result.Violation.checks;
          violations = List.length stale;
          suppressed = 0;
        };
        {
          rule = "parse";
          checks = parse_result.Violation.checks;
          violations = List.length parse_result.Violation.violations;
          suppressed = 0;
        };
      ]
  in
  {
    files = List.length paths;
    result =
      Violation.merge_all
        ((parse_result :: List.map snd stats_and_results) @ [ stale_result ]);
    stats;
    lock_edges = Lock_graph.edges graph;
  }

let scan_tree ?(allow = []) ?(dirs = default_dirs) ~root () =
  scan ~allow (files_under ~dirs ~root ())

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let pp_report fmt r =
  Format.fprintf fmt "domlint: %d files, %d checks, %d violations@." r.files
    r.result.Violation.checks
    (List.length r.result.Violation.violations);
  List.iter
    (fun s ->
      Format.fprintf fmt "  %-26s %6d checks %3d violations %3d suppressed@."
        s.rule s.checks s.violations s.suppressed)
    r.stats;
  if r.lock_edges <> [] then begin
    Format.fprintf fmt "  lock-nesting graph (%d edges, acyclic unless reported):@."
      (List.length r.lock_edges);
    List.iter
      (fun (a, b, site) -> Format.fprintf fmt "    %s -> %s (%s)@." a b site)
      r.lock_edges
  end;
  List.iter
    (fun v -> Format.fprintf fmt "  %s@." (Violation.to_string v))
    r.result.Violation.violations

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 32 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Machine-readable report for the CI artifact, same spirit as the
   BENCH_*.json files. *)
let report_json ?(workload = []) r =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b (Printf.sprintf "  \"files_scanned\": %d,\n" r.files);
  Buffer.add_string b
    (Printf.sprintf "  \"checks\": %d,\n" r.result.Violation.checks);
  Buffer.add_string b
    (Printf.sprintf "  \"violations\": %d,\n"
       (List.length r.result.Violation.violations));
  Buffer.add_string b "  \"rules\": [\n";
  List.iteri
    (fun i s ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"rule\": \"%s\", \"checks\": %d, \"violations\": %d, \
            \"suppressed\": %d}%s\n"
           (json_escape s.rule) s.checks s.violations s.suppressed
           (if i = List.length r.stats - 1 then "" else ",")))
    r.stats;
  Buffer.add_string b "  ],\n";
  Buffer.add_string b "  \"lock_edges\": [\n";
  List.iteri
    (fun i (a, bb, site) ->
      Buffer.add_string b
        (Printf.sprintf "    {\"from\": \"%s\", \"to\": \"%s\", \"site\": \"%s\"}%s\n"
           (json_escape a) (json_escape bb) (json_escape site)
           (if i = List.length r.lock_edges - 1 then "" else ",")))
    r.lock_edges;
  Buffer.add_string b "  ],\n";
  Buffer.add_string b "  \"workload\": [\n";
  List.iteri
    (fun i (label, queries, (res : Violation.result)) ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"label\": \"%s\", \"queries\": %d, \"checks\": %d, \
            \"violations\": %d}%s\n"
           (json_escape label) queries res.Violation.checks
           (List.length res.Violation.violations)
           (if i = List.length workload - 1 then "" else ",")))
    workload;
  Buffer.add_string b "  ],\n";
  Buffer.add_string b "  \"details\": [\n";
  let vs = r.result.Violation.violations in
  List.iteri
    (fun i (v : Violation.t) ->
      Buffer.add_string b
        (Printf.sprintf
           "    {\"pass\": \"%s\", \"subject\": \"%s\", \"message\": \"%s\"}%s\n"
           (json_escape v.Violation.pass)
           (json_escape v.Violation.subject)
           (json_escape v.Violation.message)
           (if i = List.length vs - 1 then "" else ",")))
    vs;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b
