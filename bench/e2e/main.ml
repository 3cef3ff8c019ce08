(* Command line of the end-to-end benchmark; see README.md.

     main.exe --workload W --seed N --seconds S --trace 0|1 [--out FILE]
     main.exe compare BASE.json NEW.json
     main.exe golden

   A run prints every metric with its unit, then, as the last line of
   standard output, one JSON object with the keys correct, attempted,
   failed and metrics. It exits 1 when any reply raises or disagrees
   with the committed answers, and 2 on a usage error. *)

open E2e

let usage () =
  prerr_endline
    "usage: main.exe --workload (adhoc|serve-zipf|optimizer-matrix) --seed N --seconds S \
     --trace 0|1 [--out FILE]\n\
    \       main.exe compare BASE.json NEW.json\n\
    \       main.exe golden";
  exit 2

let golden_dir = "bench/e2e/golden"

let result_fields (r : Bench.result) units =
  [
    ("correct", Json.Bool r.Bench.correct);
    ("attempted", Json.Num (float_of_int r.Bench.attempted));
    ("failed", Json.Num (float_of_int r.Bench.failed));
    ( "metrics",
      Json.Obj
        (List.map
           (fun (name, v) ->
             (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str (List.assoc name units)) ]))
           r.Bench.metrics) );
  ]

(* Append one run record to a results file ({"runs": [...]}), creating
   it and its directory on first use. *)
let append_run path record =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let runs =
    if Sys.file_exists path then Json.to_list (Json.member "runs" (Json.read_file path)) else []
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"runs\": [\n";
      List.iteri
        (fun i r ->
          if i > 0 then output_string oc ",\n";
          output_string oc (Json.to_string r))
        (runs @ [ record ]);
      output_string oc "\n]}\n")

let run_cmd args =
  let workload = ref None and seed = ref 42 and seconds = ref 10.0 and trace = ref None in
  let out = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        workload := List.assoc_opt v Bench.workloads;
        if !workload = None then usage ();
        parse rest
    | "--seed" :: v :: rest ->
        seed := Option.value ~default:(-1) (int_of_string_opt v);
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := Option.value ~default:(-1.0) (float_of_string_opt v);
        parse rest
    | "--trace" :: v :: rest ->
        trace := (match v with "0" -> Some false | "1" -> Some true | _ -> usage ());
        parse rest
    | "--out" :: v :: rest ->
        out := Some v;
        parse rest
    | _ -> usage ()
  in
  parse args;
  match (!workload, !trace) with
  | Some workload, Some trace when !seed >= 0 && !seconds >= 0.0 ->
      let o =
        { Bench.workload; seed = !seed; seconds = !seconds; trace; smoke = false; golden_dir }
      in
      let units = if trace then Bench.per_layer_units else Bench.end_to_end_units in
      let r = Bench.run o in
      Printf.printf "workload %s, seed %d, %g s, trace %d\n" (Bench.workload_name workload) !seed
        !seconds (if trace then 1 else 0);
      List.iter
        (fun (name, v) -> Printf.printf "  %-36s %14.4f %s\n" name v (List.assoc name units))
        r.Bench.metrics;
      List.iter (fun n -> Printf.printf "  (%s)\n" n) r.Bench.notes;
      Printf.printf "  %d attempted, %d failed, answers %s\n" r.Bench.attempted r.Bench.failed
        (if r.Bench.correct then "correct" else "WRONG");
      let fields = result_fields r units in
      Option.iter
        (fun path ->
          append_run path
            (Json.Obj
               ([
                  ("workload", Json.Str (Bench.workload_name workload));
                  ("seed", Json.Num (float_of_int !seed));
                  ("trace", Json.Num (if trace then 1.0 else 0.0));
                ]
               @ fields)))
        !out;
      print_endline (Json.to_string (Json.Obj fields));
      exit (if r.Bench.correct then 0 else 1)
  | _ -> usage ()

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "compare"; base; next ] -> exit (Compare.main ~base ~next)
  | [ "golden" ] -> Bench.capture_golden ~dir:golden_dir
  | args -> run_cmd args
