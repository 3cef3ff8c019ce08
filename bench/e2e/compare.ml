(* [main.exe compare BASE.json NEW.json]: the regression gate over two
   sets of runs, with the bounds BENCHMARK.json fixes.

   Per workload and end-to-end metric it compares the medians of the
   untraced runs in each set. A median that moved the wrong way by more
   than the metric's bound is [regressed]; otherwise, when either set's
   interquartile spread (as a share of its median) exceeds the bound the
   sets cannot tell a regression from noise and the row is [unresolved]
   — unless every new run beats every base run; else [ok]. [setup_s] is
   judged by its median alone: set-up is sub-second, so its median
   covers only the first seconds of a run and its spread over runs
   measures the host more than the code.
   Failed operations may not increase at all. *)

type metric = { name : string; lower_is_better : bool; bound : float }

type verdict = Pass | Regressed | Unresolved

let verdict_name = function Pass -> "ok" | Regressed -> "regressed" | Unresolved -> "unresolved"

type run = {
  workload : string;
  trace : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;
}

let spec_metrics spec =
  List.map
    (fun m ->
      {
        name = Json.to_str (Json.member "name" m);
        lower_is_better = Json.to_str (Json.member "better" m) = "lower";
        bound = Json.to_float (Json.member "bound" m);
      })
    (Json.to_list (Json.member "end_to_end" spec))

let run_of_json j =
  {
    workload = Json.to_str (Json.member "workload" j);
    trace = Json.member "trace" j = Json.Num 1.0;
    attempted = int_of_float (Json.to_float (Json.member "attempted" j));
    failed = int_of_float (Json.to_float (Json.member "failed" j));
    values =
      (match Json.member "metrics" j with
      | Json.Obj l -> List.map (fun (k, v) -> (k, Json.to_float (Json.member "value" v))) l
      | _ -> []);
  }

let load_runs path = List.map run_of_json (Json.to_list (Json.member "runs" (Json.read_file path)))

let judge (m : metric) ~base ~next =
  let mb = Stats.median base and mn = Stats.median next in
  let worse = (if m.lower_is_better then mn -. mb else mb -. mn) /. Float.abs mb in
  let all_better =
    let lo = List.fold_left min infinity and hi = List.fold_left max neg_infinity in
    if m.lower_is_better then hi next < lo base else lo next > hi base
  in
  let noisy = Float.max (Stats.spread base) (Stats.spread next) > m.bound in
  if worse > m.bound then Regressed
  else if noisy && m.name <> "setup_s" && not all_better then Unresolved
  else Pass

type row = {
  r_workload : string;
  r_metric : string;
  r_base : float list;
  r_next : float list;
  r_bound : float;
  r_verdict : verdict;
}

let rows metrics ~base ~next =
  let untraced = List.filter (fun r -> not r.trace) in
  let base = untraced base and next = untraced next in
  let workloads =
    List.sort_uniq compare (List.map (fun r -> r.workload) (base @ next))
  in
  List.concat_map
    (fun w ->
      let of_w runs = List.filter (fun r -> r.workload = w) runs in
      let b = of_w base and n = of_w next in
      let values runs name = List.filter_map (fun r -> List.assoc_opt name r.values) runs in
      let metric_rows =
        List.map
          (fun m ->
            let rb = values b m.name and rn = values n m.name in
            {
              r_workload = w;
              r_metric = m.name;
              r_base = rb;
              r_next = rn;
              r_bound = m.bound;
              r_verdict = (if rb = [] || rn = [] then Unresolved else judge m ~base:rb ~next:rn);
            })
          metrics
      in
      let share runs =
        let a = List.fold_left (fun s r -> s + r.attempted) 0 runs in
        let f = List.fold_left (fun s r -> s + r.failed) 0 runs in
        if a = 0 then 0.0 else float_of_int f /. float_of_int a
      in
      metric_rows
      @ [
          {
            r_workload = w;
            r_metric = "failed_share";
            r_base = [ share b ];
            r_next = [ share n ];
            r_bound = 0.0;
            r_verdict = (if share n > share b then Regressed else Pass);
          };
        ])
    workloads

let print_rows rows =
  let cell values =
    match values with
    | [ v ] -> Printf.sprintf "%.4g" v
    | _ ->
        let q1, q3 = Stats.quartiles values in
        Printf.sprintf "%.4g [%.4g, %.4g] n=%d" (Stats.median values) q1 q3 (List.length values)
  in
  Printf.printf "%-17s %-17s %-32s %-32s %8s %6s  %s\n" "workload" "metric" "base median [q1, q3]"
    "new median [q1, q3]" "change" "bound" "verdict";
  List.iter
    (fun r ->
      let mb = Stats.median r.r_base and mn = Stats.median r.r_next in
      let change = if mb = 0.0 then 0.0 else 100.0 *. (mn -. mb) /. Float.abs mb in
      Printf.printf "%-17s %-17s %-32s %-32s %+7.1f%% %5.0f%%  %s\n" r.r_workload r.r_metric
        (cell r.r_base) (cell r.r_next) change (100.0 *. r.r_bound) (verdict_name r.r_verdict))
    rows

let main ~base ~next =
  let metrics = spec_metrics (Json.read_file "BENCHMARK.json") in
  let rows = rows metrics ~base:(load_runs base) ~next:(load_runs next) in
  print_rows rows;
  if List.for_all (fun r -> r.r_verdict = Pass) rows then 0 else 1
