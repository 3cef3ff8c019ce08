(* The answer oracle: committed expected results that every run checks
   its replies against.

   Answers (row count and MIN() projections per JOB query) depend only
   on the database, never on the plan or the engine, so they are
   captured once per scale with plans from exact cardinalities and the
   C_mm cost model — different plans from the PostgreSQL-estimate plans
   the benchmark executes — on the serial path with a raised work limit,
   so every query has an answer. The optimizer-matrix digest pins exact
   cardinalities and true-cardinality plan costs; it has no independent
   oracle and guards against regressions only. *)

type answer = { rows : int; mins : string list }

let answers_file ~dir ~scale = Filename.concat dir (Printf.sprintf "answers-%g.txt" scale)
let matrix_file ~dir ~scale = Filename.concat dir (Printf.sprintf "matrix-%g.txt" scale)

(* One line per query: name, rows, the MIN count, then each MIN as an
   OCaml string literal (values may contain spaces). *)
let write_answers path (entries : (string * answer) list) =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun (name, a) ->
          Printf.fprintf oc "%s %d %d" name a.rows (List.length a.mins);
          List.iter (fun m -> Printf.fprintf oc " %S" m) a.mins;
          output_char oc '\n')
        entries)

let read_answers path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line ->
            let ib = Scanf.Scanning.from_string line in
            let name, rows, k = Scanf.bscanf ib "%s %d %d" (fun a b c -> (a, b, c)) in
            let mins = List.init k (fun _ -> Scanf.bscanf ib " %S" Fun.id) in
            go ((name, { rows; mins }) :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let write_digests path (entries : (string * string) list) =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> List.iter (fun (name, d) -> Printf.fprintf oc "%s %s\n" name d) entries)

let read_digests path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (Scanf.sscanf line "%s %s" (fun a b -> (a, b)) :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let answer_of_result (r : Exec.Executor.result) =
  { rows = r.Exec.Executor.rows; mins = List.map Storage.Value.to_string r.Exec.Executor.mins }

(* Exact float rendering (hex) keeps the digest independent of printf
   rounding. *)
let matrix_digest ~truth ~graph ~costs =
  let b = Buffer.create 4096 in
  Array.iter
    (fun s -> Buffer.add_string b (Printf.sprintf "%h;" (Cardest.True_card.card truth s)))
    (Query.Query_graph.connected_subsets graph);
  Buffer.add_char b '|';
  List.iter (fun c -> Buffer.add_string b (Printf.sprintf "%h;" c)) costs;
  Digest.to_hex (Digest.string (Buffer.contents b))
