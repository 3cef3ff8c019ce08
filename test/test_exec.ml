(* Tests for the executor: the join hash table, result correctness across
   different plans for the same query, work accounting, timeouts and
   configuration gating. *)

module Bitset = Util.Bitset
module QG = Query.Query_graph

(* --- Join_table ------------------------------------------------------------ *)

(* A table over build rows whose key hashes are [hashes] (entry i is
   row i; a negative hash is a NULL key), sealed; returns the table and
   the seal's resize charge. *)
let build ?bucket_floor ~estimated_rows ~resizable hashes =
  let jt =
    Exec.Join_table.create ?bucket_floor ~estimated_rows ~resizable
      (Array.of_list hashes)
  in
  (jt, Exec.Join_table.seal jt)

let mixed n = List.init n Exec.Join_table.mix

(* One probe through the chain cursor, walked the way the executor's
   hash stage walks it: the build rows whose entry hash matches, in
   chain order, the chain length, and the probe's work units. *)
let probe_chain jt hash =
  let e = ref (Exec.Join_table.head jt ~hash) and chain = ref 0 in
  let found = ref [] in
  while !e >= 0 do
    incr chain;
    if Exec.Join_table.entry_hash jt !e = hash then found := !e :: !found;
    e := Exec.Join_table.next jt !e
  done;
  (List.rev !found, !chain, Exec.Join_table.probe_work ~chain:!chain)

(* Every entry on some chain: the walk of each bucket's chain, in
   bucket order. *)
let chained jt =
  List.concat_map
    (fun b ->
      let e = ref (Exec.Join_table.head jt ~hash:b) and rows = ref [] in
      while !e >= 0 do
        rows := !e :: !rows;
        e := Exec.Join_table.next jt !e
      done;
      List.rev !rows)
    (List.init (Exec.Join_table.bucket_count jt) Fun.id)

let test_join_table_basics () =
  let h1 = Exec.Join_table.mix 42 and h2 = Exec.Join_table.mix 43 in
  (* Rows 0 and 4 have a NULL key. *)
  let jt, _ =
    build ~estimated_rows:100.0 ~resizable:false [ -1; h1; h1; h2; -1 ]
  in
  let found, _, _ = probe_chain jt h1 in
  Alcotest.(check (list int)) "both rows, ascending" [ 1; 2 ] found;
  Alcotest.(check int) "entries" 3 (Exec.Join_table.entry_count jt);
  Alcotest.(check (list int)) "NULL-key rows on no chain" [ 1; 2; 3 ]
    (List.sort compare (chained jt));
  (* 16 buckets hold 16 entries without a resize whatever the NULL
     rows; a 17th entry costs one rehash of 16. *)
  let bill keyed nulls =
    snd
      (build ~bucket_floor:16 ~estimated_rows:1.0 ~resizable:true
         (List.init nulls (fun _ -> -1) @ mixed keyed))
  in
  Alcotest.(check int) "NULL rows not billed" 0 (bill 16 100);
  Alcotest.(check int) "entries billed" 16 (bill 17 0);
  Alcotest.(check int) "entries billed, NULL rows not" 16 (bill 17 100)

let test_join_table_undersized_chains () =
  (* A fixed-size table sized for 1 row (floored at 1024 buckets, like
     PostgreSQL) forced to hold 64k entries: probes walk long chains,
     which the work accounting must reflect. *)
  let jt, seal_work = build ~estimated_rows:1.0 ~resizable:false (mixed 65536) in
  Alcotest.(check int) "fixed table charges no resize" 0 seal_work;
  Alcotest.(check int) "floored bucket array" 1024 (Exec.Join_table.bucket_count jt);
  (* 64k entries over 1024 buckets: ~64-entry chains, charged at a
     quarter tuple each. *)
  let _, _, work = probe_chain jt (Exec.Join_table.mix 7) in
  Alcotest.(check bool)
    (Printf.sprintf "long chain (%d)" work)
    true (work > 10)

let test_join_table_resizing () =
  let jt, _ = build ~estimated_rows:1.0 ~resizable:true (mixed 65536) in
  Alcotest.(check bool) "grew" true (Exec.Join_table.bucket_count jt >= 65536);
  let _, _, work = probe_chain jt (Exec.Join_table.mix 7) in
  Alcotest.(check bool) "short chain" true (work < 10)

(* The probe charge, pinned: a fixed 1024-bucket table whose probed
   bucket holds exactly [len] entries — [same] with the probed hash,
   the rest colliding on the bucket with another hash — charges
   [1 + len / 4], whatever the neighbouring buckets hold. *)
let test_join_table_chain_charge () =
  let h = Exec.Join_table.mix 7 in
  List.iter
    (fun (same, colliding) ->
      let jt, _ =
        build ~estimated_rows:1.0 ~resizable:false
          (List.init same (fun _ -> h)
          @ List.init colliding (fun _ -> h + 1024)
          @ List.init 50 (fun _ -> h + 1))
      in
      Alcotest.(check int) "1024 buckets" 1024 (Exec.Join_table.bucket_count jt);
      let len = same + colliding in
      let found, chain, work = probe_chain jt h in
      let label = Printf.sprintf "chain of %d" len in
      Alcotest.(check int) (label ^ ": length") len chain;
      Alcotest.(check int) (label ^ ": charge") (1 + (len / 4)) work;
      Alcotest.(check (list int)) (label ^ ": matches, ascending")
        (List.init same Fun.id) found)
    [ (0, 0); (1, 0); (3, 0); (4, 0); (5, 2); (0, 7); (16, 16); (37, 26) ]

(* The resize bill: a resizable table that starts at B0 buckets and
   seals n entries charges sum b for b = B0, 2*B0, 4*B0, ... while
   b < n (one full rehash per doubling); a fixed table charges 0. *)
let seal_charges_doubling_schedule =
  Support.qcheck_case ~name:"seal charges the doubling schedule"
    QCheck.(triple (int_range 0 6000) (int_range 0 3) bool)
    (fun (n, floor_exp, resizable) ->
      let bucket_floor = 16 lsl (2 * floor_exp) in
      let _, seal_work =
        build ~bucket_floor ~estimated_rows:1.0 ~resizable (mixed n)
      in
      let b0 = Exec.Join_table.planned_buckets ~bucket_floor ~estimated_rows:1.0 () in
      let rec expected b = if b < n then b + expected (2 * b) else 0 in
      seal_work = if resizable then expected b0 else 0)

let join_table_finds_all =
  Support.qcheck_case ~name:"join table probe finds exactly inserted hashes"
    QCheck.(small_int)
    (fun seed ->
      let prng = Util.Prng.create seed in
      let resizable = Util.Prng.bool prng in
      let keys = Array.init 200 (fun _ -> Util.Prng.int prng 50) in
      let jt, _ =
        build ~estimated_rows:64.0 ~resizable
          (List.map Exec.Join_table.mix (Array.to_list keys))
      in
      List.for_all
        (fun probe ->
          let rows, _, _ = probe_chain jt (Exec.Join_table.mix probe) in
          let found = List.length (List.filter (fun p -> keys.(p) = probe) rows) in
          let expected = Array.fold_left (fun a k -> if k = probe then a + 1 else a) 0 keys in
          found = expected)
        [ 0; 7; 49 ])

(* --- Executor ------------------------------------------------------------------ *)

let micro ?(relations = 3) seed =
  let prng = Util.Prng.create seed in
  let db = Support.micro_db prng ~tables:relations ~rows:25 in
  let g = Support.micro_query prng db ~relations ~extra_edges:0 in
  (db, g)

let run ?(config = Exec.Engine_config.robust) db g plan =
  Exec.Executor.run ~db ~graph:g ~config ~size_est:(fun _ -> 64.0) plan

let all_plans_agree =
  Support.qcheck_case ~count:25 ~name:"hash/INL/NL plans return identical row counts"
    QCheck.(pair small_int (int_range 2 4))
    (fun (seed, relations) ->
      let db, g = micro ~relations seed in
      Storage.Database.set_index_config db Storage.Database.Pk_fk;
      let expected = Support.brute_force_count g (QG.full_set g) in
      let tc = Cardest.True_card.compute g in
      let plans =
        [
          fst (Planner.Dp.optimize
                 (Planner.Search.create ~model:Cost.Cost_model.cmm ~graph:g ~db
                    ~card:(Cardest.True_card.card tc) ()));
          fst (Planner.Dp.optimize
                 (Planner.Search.create ~allow_nl:true
                    ~model:Cost.Cost_model.postgres ~graph:g ~db
                    ~card:(fun _ -> 1.0)
                    ()));
          fst (Planner.Quickpick.sample
                 (Planner.Search.create ~model:Cost.Cost_model.cmm ~graph:g ~db
                    ~card:(Cardest.True_card.card tc) ())
                 (Util.Prng.create seed));
          fst (Planner.Dp.optimize
                 (Planner.Search.create ~shape:Planner.Search.Only_left_deep
                    ~model:Cost.Cost_model.cmm ~graph:g ~db
                    ~card:(Cardest.True_card.card tc) ()));
        ]
      in
      List.for_all
        (fun plan ->
          let result = run ~config:Exec.Engine_config.default_9_4 db g plan in
          result.Exec.Executor.rows = expected)
        plans)

let merge_join_agrees_with_hash =
  Support.qcheck_case ~count:25 ~name:"sort-merge join = hash join results"
    QCheck.(pair small_int (int_range 2 4))
    (fun (seed, relations) ->
      let db, g = micro ~relations seed in
      Storage.Database.set_index_config db Storage.Database.No_indexes;
      let expected = Support.brute_force_count g (QG.full_set g) in
      (* Force sort-merge everywhere by disabling hash joins. *)
      let tc = Cardest.True_card.compute g in
      let s =
        Planner.Search.create ~allow_hash:false ~model:Cost.Cost_model.cmm
          ~graph:g ~db ~card:(Cardest.True_card.card tc) ()
      in
      let plan, _ = Planner.Dp.optimize s in
      let all_merge =
        Plan.fold
          (fun acc (n : Plan.t) ->
            acc
            && match n.Plan.op with
               | Plan.Join { algo; _ } -> algo = Plan.Merge_join
               | Plan.Scan _ -> true)
          true plan
      in
      let result = run db g plan in
      all_merge && result.Exec.Executor.rows = expected)

(* Every plan shape against the brute-force oracle, with projections:
   random micro graphs (cyclic ones included) and zero to three random
   [(rel, col)] MIN projections — zero is a COUNT-only root, which keeps
   exactly one slot. DP with hash/INL joins, DP with NL joins allowed,
   Quickpick, left-deep DP, an all-merge-join DP plan, the DP plan under
   an attached observer (every node materialized) and the DP plan on a
   2-domain pool must each return the oracle's COUNT and MINs: a slot
   dropped too early raises, one gathered from the wrong position
   returns a wrong MIN. *)
let oracle_holds ~seed db g projections =
  let expected = Support.brute_force_mins g projections in
  let card = Cardest.True_card.card (Cardest.True_card.compute g) in
  let search ?allow_nl ?allow_hash ?shape ?(card = card) model =
    Planner.Search.create ?allow_nl ?allow_hash ?shape ~model ~graph:g ~db ~card ()
  in
  let dp s = fst (Planner.Dp.optimize s) in
  Storage.Database.set_index_config db Storage.Database.No_indexes;
  let merge = dp (search ~allow_hash:false Cost.Cost_model.cmm) in
  let all_merge =
    Plan.fold
      (fun acc (n : Plan.t) ->
        acc
        && match n.Plan.op with
           | Plan.Join { algo; _ } -> algo = Plan.Merge_join
           | Plan.Scan _ -> true)
      true merge
  in
  Storage.Database.set_index_config db Storage.Database.Pk_fk;
  let hash_inl = dp (search Cost.Cost_model.cmm) in
  let config =
    {
      Exec.Engine_config.default_9_4 with
      Exec.Engine_config.work_limit = max_int / 2;
      row_limit = max_int / 2;
    }
  in
  let answer ?observe ?pool plan =
    let r =
      Exec.Executor.run ~db ~graph:g ~config ~size_est:card ?observe ?pool
        ~projections plan
    in
    (r.Exec.Executor.rows, r.Exec.Executor.mins)
  in
  let pool = Util.Domain_pool.create ~domains:2 in
  let answers =
    Fun.protect
      ~finally:(fun () -> Util.Domain_pool.shutdown pool)
      (fun () ->
        [
          answer hash_inl;
          (* Estimates of 1 row make the NL join look cheapest. *)
          answer
            (dp
               (search ~allow_nl:true ~card:(fun _ -> 1.0)
                  Cost.Cost_model.postgres));
          answer
            (fst
               (Planner.Quickpick.sample (search Cost.Cost_model.cmm)
                  (Util.Prng.create seed)));
          answer (dp (search ~shape:Planner.Search.Only_left_deep Cost.Cost_model.cmm));
          answer merge;
          answer ~observe:(fun _ ~rows:_ ~work:_ -> ()) hash_inl;
          answer ~pool hash_inl;
        ])
  in
  let same (rows, mins) (rows', mins') =
    rows = rows' && List.equal Storage.Value.equal mins mins'
  in
  all_merge && List.for_all (same expected) answers

let oracle_law ~rows (seed, relations) =
  let prng = Util.Prng.create seed in
  let db = Support.micro_db prng ~tables:relations ~rows in
  let g =
    Support.micro_query prng db ~relations ~extra_edges:(Util.Prng.int prng 3)
  in
  let projections =
    List.init (Util.Prng.int prng 4) (fun _ ->
        let rel = Util.Prng.int prng relations in
        let table = (QG.relation g rel).QG.table in
        (rel, Util.Prng.int prng (Storage.Table.column_count table)))
  in
  oracle_holds ~seed db g projections

let plans_match_oracle =
  Support.qcheck_case ~count:100
    ~name:"oracle COUNT and MIN, all plan shapes"
    QCheck.(pair (int_bound 100_000) (int_range 2 5))
    (oracle_law ~rows:60)

(* A fixed input whose stored intermediate crosses staging segments:
   [big] (5 morsels and a bit) joins [small] on a 5-valued column, so
   each full morsel of [big] emits 5 x 4096 tuples, past four stage
   buffers and across several 4 K-word staging segments; [big]'s
   nullable fk joins [dim], whose predicate keeps one row. *)
let staging_input () =
  let n = (5 * 4096) + 100 in
  let prng = Util.Prng.create 19 in
  let db = Storage.Database.create () in
  let ints name len f = Storage.Column.of_ints ~name (Array.init len f) in
  let add name ?fks columns =
    Storage.Database.add_table db
      (Storage.Table.create ~name ~pk:"id" ?fks (Array.of_list columns))
  in
  add "small" [ ints "id" 25 (fun r -> Some (r + 1)); ints "v" 25 (fun r -> Some (r mod 5)) ];
  add "big" ~fks:[ "fk" ]
    [
      ints "id" n (fun r -> Some (r + 1));
      ints "v" n (fun _ -> Some (Util.Prng.int prng 5));
      ints "fk" n (fun _ ->
          if Util.Prng.chance prng 0.1 then None else Some (1 + Util.Prng.int prng 25));
    ];
  add "dim" [ ints "id" 25 (fun r -> Some (r + 1)); ints "w" 25 (fun r -> Some (r mod 25)) ];
  let rel idx alias preds =
    let table = Storage.Database.find_table db alias in
    { QG.idx; alias; table; preds }
  in
  let g =
    QG.create ~name:"staging"
      [|
        rel 0 "small" [];
        rel 1 "big" [];
        rel 2 "dim" [ Query.Predicate.Cmp { col = 1; op = Query.Predicate.Le; code = 0 } ];
      |]
      [
        { QG.left = 1; left_col = 1; right = 0; right_col = 1; pk_side = None };
        { QG.left = 1; left_col = 2; right = 2; right_col = 0; pk_side = Some `Right };
      ]
  in
  (db, g, [ (0, 0); (2, 1) ], n)

(* The staging input: every plan shape against the oracle, then the
   plan that stores [big] ⋈ [small] as a merge-join input. That
   pipeline is the run's only pool phase, so Morsel's telemetry shows
   whether both slots claimed its morsels; the pooled run is repeated
   until they have, and must each time equal the oracle and the no-pool
   run, work included. *)
let test_staging_oracle () =
  let db, g, projections, n = staging_input () in
  Alcotest.(check int) "every big row meets 5 small rows" (5 * n)
    (Support.brute_force_count g (Bitset.of_list [ 0; 1 ]));
  Alcotest.(check bool) "every plan shape matches the oracle" true
    (oracle_holds ~seed:19 db g projections);
  let plan =
    Plan.join Plan.Merge_join
      ~outer:(Plan.join Plan.Hash_join ~outer:(Plan.scan 1) ~inner:(Plan.scan 0))
      ~inner:(Plan.scan 2)
  in
  let fingerprint ?pool () =
    let r =
      Exec.Executor.run ~db ~graph:g ~config:Exec.Engine_config.robust
        ~size_est:(fun _ -> 1.0) ?pool ~projections plan
    in
    ( (r.Exec.Executor.rows, List.map Storage.Value.to_string r.Exec.Executor.mins),
      (r.Exec.Executor.work, r.Exec.Executor.timed_out) )
  in
  let rows, mins = Support.brute_force_mins g projections in
  let alone = fingerprint () in
  let answer = Alcotest.(pair int (list string)) in
  Alcotest.check answer "no pool = oracle"
    (rows, List.map Storage.Value.to_string mins)
    (fst alone);
  let pool = Util.Domain_pool.create ~domains:2 in
  let split =
    Fun.protect
      ~finally:(fun () -> Util.Domain_pool.shutdown pool)
      (fun () ->
        let rec attempt k =
          Exec.Morsel.reset_stats ();
          let pooled = fingerprint ~pool () in
          Alcotest.check
            Alcotest.(pair answer (pair int bool))
            "pool = no pool" alone pooled;
          let st = Exec.Morsel.stats () in
          Alcotest.(check int) "one pool phase" 1 st.Exec.Morsel.st_phases;
          let split =
            st.Exec.Morsel.st_stolen > 0
            && st.Exec.Morsel.st_stolen < st.Exec.Morsel.st_dispatched
          in
          if split || k = 1 then split else attempt (k - 1)
        in
        attempt 200)
  in
  Alcotest.(check bool) "both slots claimed the stored node's morsels" true split

(* The staging input, then the same law with base tables past two
   4096-row morsels, so the 2-domain pool really splits the scans. *)
let plans_match_oracle_on_pool =
  let name, speed, random_inputs =
    Support.qcheck_case ~count:3 ~name:"oracle COUNT and MIN on the pool"
      QCheck.(pair (int_bound 100_000) (int_range 2 3))
      (oracle_law ~rows:8200)
  in
  ( name,
    speed,
    fun () ->
      test_staging_oracle ();
      random_inputs () )

(* A column whose range no 57-bit packing holds keeps one word per row.
   [wide.k] holds values next to [min_int] and [max_int], and NULLs; it
   joins [narrow.x], which packs because all its values sit just below
   [max_int]. [wide] is past two morsels, so a 2-domain pool splits its
   scans. The query: narrow p; wide w with [k >= max_int - 10] and
   w.k = p.x; wide w2 with k between [min_int + 1] and [min_int + 6]
   and w2.fk = p.id. *)
let wide_rows = (2 * 4096) + 500

let wide_k r =
  match r mod 4 with
  | 0 -> Some (min_int + 1 + (r mod 13))
  | 1 -> None
  | _ -> Some (max_int - (r mod 23))

let wide_input () =
  let db = Storage.Database.create () in
  let ints name len f = Storage.Column.of_ints ~name (Array.init len f) in
  Storage.Database.add_table db
    (Storage.Table.create ~name:"narrow" ~pk:"id"
       [| ints "id" 40 (fun r -> Some (r + 1)); ints "x" 40 (fun r -> Some (max_int - (r mod 20))) |]);
  Storage.Database.add_table db
    (Storage.Table.create ~name:"wide" ~pk:"id" ~fks:[ "fk" ]
       [|
         ints "id" wide_rows (fun r -> Some (r + 1));
         ints "k" wide_rows wide_k;
         ints "fk" wide_rows (fun r -> Some (1 + (r mod 40)));
       |]);
  let rel idx alias name preds =
    { QG.idx; alias; table = Storage.Database.find_table db name; preds }
  in
  let ge = Query.Predicate.Cmp { col = 1; op = Query.Predicate.Ge; code = max_int - 10 } in
  let between = Query.Predicate.Between { col = 1; lo = min_int + 1; hi = min_int + 6 } in
  let g =
    QG.create ~name:"wide"
      [| rel 0 "p" "narrow" []; rel 1 "w" "wide" [ ge ]; rel 2 "w2" "wide" [ between ] |]
      [
        { QG.left = 1; left_col = 1; right = 0; right_col = 1; pk_side = None };
        { QG.left = 2; left_col = 2; right = 0; right_col = 0; pk_side = Some `Right };
      ]
  in
  (db, g, ge, between)

(* The wide column through every consumer: the selection-vector scan
   against the cells, exact cardinalities and the executor (no pool and
   a 2-domain pool, fused and materialized, then every plan shape)
   against the brute-force COUNT and MIN. *)
let test_wide_column () =
  let db, g, ge, between = wide_input () in
  let wide = Storage.Database.find_table db "wide" in
  let layout what table col packed =
    let c = Storage.Table.column (Storage.Database.find_table db table) col in
    Alcotest.(check bool) what packed (Storage.Column.byte_size c < Storage.Column.flat_byte_size c)
  in
  layout "wide.k keeps a word per row" "wide" 1 false;
  layout "narrow.x packs" "narrow" 1 true;
  List.iter
    (fun (what, pred, keep) ->
      let fill = Query.Predicate.compile_selector wide [ pred ] in
      let sel = Array.make 4096 0 and got = ref [] and row = ref 0 in
      while !row < wide_rows do
        let stop = min wide_rows (!row + 4096) in
        let m = fill sel !row stop in
        for i = 0 to m - 1 do
          got := sel.(i) :: !got
        done;
        row := stop
      done;
      Alcotest.(check (list int))
        (what ^ ": selected rows")
        (List.filter
           (fun r -> match wide_k r with Some v -> keep v | None -> false)
           (List.init wide_rows Fun.id))
        (List.rev !got))
    [
      ("k >= max_int - 10", ge, fun v -> v >= max_int - 10);
      ("k between min_int + 1 and min_int + 6", between, fun v -> v >= min_int + 1 && v <= min_int + 6);
    ];
  let tc = Cardest.True_card.compute g in
  Array.iter
    (fun s ->
      Alcotest.(check (Alcotest.float 0.0))
        (Format.asprintf "true card of %a" Bitset.pp s)
        (float_of_int (Support.brute_force_count g s))
        (Cardest.True_card.card tc s))
    (QG.connected_subsets g);
  let projections = [ (1, 1); (2, 1); (0, 1) ] in
  let rows, mins = Support.brute_force_mins g projections in
  Alcotest.(check bool) "the join is not empty" true (rows > 0);
  let expected = (rows, List.map Storage.Value.to_string mins) in
  let plan =
    Plan.join Plan.Hash_join
      ~outer:(Plan.join Plan.Hash_join ~outer:(Plan.scan 1) ~inner:(Plan.scan 0))
      ~inner:(Plan.scan 2)
  in
  let answer ?pool ?observe () =
    let r =
      Exec.Executor.run ~db ~graph:g ~config:Exec.Engine_config.robust
        ~size_est:(fun _ -> 64.0) ?pool ?observe ~projections plan
    in
    (r.Exec.Executor.rows, List.map Storage.Value.to_string r.Exec.Executor.mins)
  in
  let observe _ ~rows:_ ~work:_ = () in
  let check what got = Alcotest.(check (pair int (list string))) what expected got in
  check "exec-jobs 1, fused" (answer ());
  check "exec-jobs 1, materialized" (answer ~observe ());
  let pool = Util.Domain_pool.create ~domains:2 in
  Fun.protect
    ~finally:(fun () -> Util.Domain_pool.shutdown pool)
    (fun () ->
      check "exec-jobs 2, fused" (answer ~pool ());
      check "exec-jobs 2, materialized" (answer ~pool ~observe ()));
  Alcotest.(check bool) "every plan shape matches the oracle" true
    (oracle_holds ~seed:23 db g projections)

(* The chain t0 <- t1 <- t2 over a 3-table micro database: t1.fk0 =
   t0.id and t2.fk1 = t1.id. *)
let chain_graph db =
  let table i = Storage.Database.find_table db (Printf.sprintf "t%d" i) in
  let edge child parent =
    {
      QG.left = child;
      left_col =
        Storage.Table.column_index (table child) (Printf.sprintf "fk%d" parent);
      right = parent;
      right_col = Storage.Table.column_index (table parent) "id";
      pk_side = Some `Right;
    }
  in
  QG.create ~name:"chain"
    (Array.init 3 (fun i ->
         { QG.idx = i; alias = Printf.sprintf "t%d" i; table = table i; preds = [] }))
    [ edge 1 0; edge 2 1 ]

let test_live_relations () =
  let db = Support.micro_db (Util.Prng.create 3) ~tables:3 ~rows:25 in
  let g = chain_graph db in
  let live projections set rels =
    Exec.Executor.live_relations g ~projections (Bitset.of_list set) rels
  in
  let check = Alcotest.(check (array int)) in
  check "edges all inside the set: dropped" [| 1 |] (live [] [ 0; 1 ] [| 0; 1 |]);
  check "projected, no edge leaving the set: kept" [| 0; 1 |]
    (live [ (0, 1) ] [ 0; 1 ] [| 0; 1 |]);
  check "the layout's order is kept" [| 1; 0 |]
    (live [ (0, 1) ] [ 0; 1 ] [| 1; 0 |]);
  check "COUNT-only root: exactly its first slot" [| 2 |]
    (live [] [ 0; 1; 2 ] [| 2; 0; 1 |]);
  check "projected root: the projected slots only" [| 0 |]
    (live [ (0, 1); (0, 0) ] [ 0; 1; 2 ] [| 2; 0; 1 |])

(* A COUNT-only root keeps one slot even when the root is a merge join,
   which materializes its output. *)
let test_count_only_merge_root () =
  let db = Support.micro_db (Util.Prng.create 4) ~tables:3 ~rows:40 in
  Storage.Database.set_index_config db Storage.Database.No_indexes;
  let g = chain_graph db in
  let merge outer inner = Plan.join Plan.Merge_join ~outer ~inner in
  let plan = merge (merge (Plan.scan 2) (Plan.scan 1)) (Plan.scan 0) in
  let truth =
    Cardest.True_card.card (Cardest.True_card.compute g) (QG.full_set g)
  in
  let r = run db g plan in
  Alcotest.(check bool) "rows > 0" true (r.Exec.Executor.rows > 0);
  Alcotest.(check int) "rows = true card" (int_of_float truth) r.Exec.Executor.rows;
  Alcotest.(check (list string)) "no MINs" []
    (List.map Storage.Value.to_string r.Exec.Executor.mins)

(* A merge join whose stored output is three slots wide: a 4096-word
   staging segment ends inside a tuple (at row 1365), so that tuple is
   split across two segments. The output feeds the next merge join's
   keys, and every relation is projected; the answer must be the
   all-hash plan's. *)
let test_merge_output_straddles_segments () =
  let db = Lazy.force Support.imdb_mid in
  Storage.Database.set_index_config db Storage.Database.No_indexes;
  let b =
    Sqlfront.Binder.bind_sql db ~name:"straddle"
      "SELECT MIN(t.title), MIN(ci.note), MIN(n.name), MIN(mc.note) FROM title AS t, \
       cast_info AS ci, name AS n, movie_companies AS mc WHERE t.id = ci.movie_id \
       AND n.id = ci.person_id AND t.id = mc.movie_id"
  in
  let g = b.Sqlfront.Binder.graph in
  let rel alias = (Option.get (QG.relation_by_alias g alias)).QG.idx in
  let middle = Bitset.of_list [ rel "ci"; rel "t"; rel "n" ] in
  Alcotest.(check bool) "the three-slot output crosses a segment" true
    (Cardest.True_card.card (Cardest.True_card.compute g) middle > 4096.0 /. 3.0);
  let answer algo =
    let join outer inner = Plan.join algo ~outer ~inner in
    let plan =
      join
        (join (join (Plan.scan (rel "ci")) (Plan.scan (rel "t"))) (Plan.scan (rel "n")))
        (Plan.scan (rel "mc"))
    in
    let r =
      Exec.Executor.run ~db ~graph:g ~config:Exec.Engine_config.robust
        ~size_est:(fun _ -> 64.0) ~projections:b.Sqlfront.Binder.projections plan
    in
    Printf.sprintf "rows %d, mins [%s]" r.Exec.Executor.rows
      (String.concat "; " (List.map Storage.Value.to_string r.Exec.Executor.mins))
  in
  Alcotest.(check string) "merge = hash" (answer Plan.Hash_join) (answer Plan.Merge_join)

let test_merge_join_costs_more_than_hash () =
  (* The paper's work_mem observation: in memory, hashing beats
     sort-merge. Same join, both algorithms. *)
  let db = Lazy.force Support.imdb_mid in
  Storage.Database.set_index_config db Storage.Database.No_indexes;
  let b =
    Sqlfront.Binder.bind_sql db ~name:"m"
      "SELECT MIN(t.title) FROM title AS t, cast_info AS ci WHERE \
       t.id = ci.movie_id"
  in
  let g = b.Sqlfront.Binder.graph in
  let e = List.hd (QG.edges g) in
  let outer = Plan.scan e.QG.left and inner = Plan.scan e.QG.right in
  let work algo =
    (run db g (Plan.join algo ~outer ~inner)).Exec.Executor.work
  in
  Alcotest.(check bool) "merge > hash" true
    (work Plan.Merge_join > work Plan.Hash_join)

let test_executor_rows_match_truth () =
  let db = Lazy.force Support.imdb in
  Storage.Database.set_index_config db Storage.Database.Pk_only;
  let b =
    Sqlfront.Binder.bind_sql db ~name:"x"
      "SELECT MIN(t.title) FROM title AS t, cast_info AS ci, name AS n WHERE \
       t.id = ci.movie_id AND ci.person_id = n.id AND n.gender = 'f' AND \
       t.production_year > 2000"
  in
  let g = b.Sqlfront.Binder.graph in
  let tc = Cardest.True_card.compute g in
  let s =
    Planner.Search.create ~model:Cost.Cost_model.cmm ~graph:g ~db
      ~card:(Cardest.True_card.card tc) ()
  in
  let plan, _ = Planner.Dp.optimize s in
  let result = run db g plan in
  Alcotest.(check int) "rows = true card"
    (int_of_float (Cardest.True_card.card tc (QG.full_set g)))
    result.Exec.Executor.rows;
  Alcotest.(check bool) "work positive" true (result.Exec.Executor.work > 0);
  Alcotest.(check bool) "no timeout" true (not result.Exec.Executor.timed_out)

let test_executor_mins () =
  let db = Lazy.force Support.imdb in
  Storage.Database.set_index_config db Storage.Database.Pk_only;
  let b =
    Sqlfront.Binder.bind_sql db ~name:"x"
      "SELECT MIN(t.production_year) FROM title AS t, movie_keyword AS mk \
       WHERE t.id = mk.movie_id"
  in
  let g = b.Sqlfront.Binder.graph in
  let tc = Cardest.True_card.compute g in
  let s =
    Planner.Search.create ~model:Cost.Cost_model.cmm ~graph:g ~db
      ~card:(Cardest.True_card.card tc) ()
  in
  let plan, _ = Planner.Dp.optimize s in
  let result =
    Exec.Executor.run ~db ~graph:g ~config:Exec.Engine_config.robust
      ~size_est:(Cardest.True_card.card tc)
      ~projections:b.Sqlfront.Binder.projections plan
  in
  (* Compute MIN(production_year) over movies with keywords manually. *)
  let t = Storage.Database.find_table db "title" in
  let mk = Storage.Database.find_table db "movie_keyword" in
  let year = Storage.Column.to_codes (Storage.Table.find_column t "production_year") in
  let movie = Storage.Column.to_codes (Storage.Table.find_column mk "movie_id") in
  let best = ref max_int in
  Array.iter
    (fun m ->
      let y = year.(m - 1) in
      if y <> Storage.Value.null_code && y < !best then best := y)
    movie;
  match result.Exec.Executor.mins with
  | [ Storage.Value.Int y ] -> Alcotest.(check int) "min year" !best y
  | other ->
      Alcotest.failf "unexpected mins: %s"
        (String.concat "," (List.map Storage.Value.to_string other))

let test_executor_timeout () =
  let db, g = micro ~relations:3 5 in
  Storage.Database.set_index_config db Storage.Database.No_indexes;
  let tc = Cardest.True_card.compute g in
  let s =
    Planner.Search.create ~model:Cost.Cost_model.cmm ~graph:g ~db
      ~card:(Cardest.True_card.card tc) ()
  in
  let plan, _ = Planner.Dp.optimize s in
  let config = { Exec.Engine_config.robust with Exec.Engine_config.work_limit = 10 } in
  let result = run ~config db g plan in
  Alcotest.(check bool) "timed out" true result.Exec.Executor.timed_out;
  Alcotest.(check int) "work = limit" 10 result.Exec.Executor.work

let test_nl_disabled_raises () =
  let db, g = micro ~relations:2 9 in
  Storage.Database.set_index_config db Storage.Database.No_indexes;
  let e = List.hd (QG.edges g) in
  let plan =
    Plan.join Plan.Nl_join ~outer:(Plan.scan e.QG.left) ~inner:(Plan.scan e.QG.right)
  in
  (try
     ignore (run ~config:Exec.Engine_config.no_nl db g plan);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  (* Allowed under the stock engine. *)
  ignore (run ~config:Exec.Engine_config.default_9_4 db g plan)

let test_inl_without_index_raises () =
  let db, g = micro ~relations:2 10 in
  Storage.Database.set_index_config db Storage.Database.No_indexes;
  let e = List.hd (QG.edges g) in
  let plan =
    Plan.join Plan.Index_nl_join ~outer:(Plan.scan e.QG.left)
      ~inner:(Plan.scan e.QG.right)
  in
  try
    ignore (run db g plan);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_nl_charges_quadratic_work () =
  let db, g = micro ~relations:2 12 in
  Storage.Database.set_index_config db Storage.Database.No_indexes;
  let e = List.hd (QG.edges g) in
  let outer = Plan.scan e.QG.left and inner = Plan.scan e.QG.right in
  let nl = Plan.join Plan.Nl_join ~outer ~inner in
  let hj = Plan.join Plan.Hash_join ~outer ~inner in
  let run_w plan = (run ~config:Exec.Engine_config.default_9_4 db g plan).Exec.Executor.work in
  Alcotest.(check bool) "NL costs more work than HJ" true (run_w nl > run_w hj)

let test_undersized_hash_table_penalty () =
  (* The 9.4 pathology: a 200k-row build side crammed into the
     1024-bucket floor (estimate says 1 row) makes every probe walk a
     ~200-entry chain; the resizing engine pays rehashing instead. *)
  let db = Storage.Database.create () in
  let some_init n f = Array.init n (fun i -> Some (f i)) in
  Storage.Database.add_table db
    (Storage.Table.create ~name:"build" ~pk:"id"
       [| Storage.Column.of_ints ~name:"id" (some_init 200_000 (fun i -> i)) |]);
  Storage.Database.add_table db
    (Storage.Table.create ~name:"probe" ~fks:[ "build_id" ]
       [|
         Storage.Column.of_ints ~name:"id" (some_init 40_000 (fun i -> i));
         Storage.Column.of_ints ~name:"build_id"
           (some_init 40_000 (fun i -> (i * 7919) mod 200_000));
       |]);
  Storage.Database.set_index_config db Storage.Database.No_indexes;
  let rels =
    [|
      { QG.idx = 0; alias = "p"; table = Storage.Database.find_table db "probe"; preds = [] };
      { QG.idx = 1; alias = "b"; table = Storage.Database.find_table db "build"; preds = [] };
    |]
  in
  let g =
    QG.create ~name:"hash-penalty" rels
      [ { QG.left = 0; left_col = 1; right = 1; right_col = 0; pk_side = Some `Right } ]
  in
  let plan = Plan.join Plan.Hash_join ~outer:(Plan.scan 0) ~inner:(Plan.scan 1) in
  let work config =
    (Exec.Executor.run ~db ~graph:g ~config ~size_est:(fun _ -> 1.0) plan)
      .Exec.Executor.work
  in
  let fixed_under = work Exec.Engine_config.no_nl in
  let resizing = work Exec.Engine_config.robust in
  Alcotest.(check bool)
    (Printf.sprintf "undersized fixed (%d) slower than resizing (%d)" fixed_under
       resizing)
    true
    (fixed_under > 2 * resizing)

(* The executor checked against an independent oracle: all 113 JOB
   queries, each under its PostgreSQL-estimate plan and its
   true-cardinality plan, run with a checkpoint observer. Every
   checkpoint must report the Yannakakis-counted cardinality of its
   subset, the result the full set's, and the observer must see one
   checkpoint per evaluated node — which pins the rule that an attached
   observer makes every node a pipeline breaker. *)
let test_checkpoints_match_truth () =
  let s = Core.Session.create ~seed:11 ~scale:0.001 () in
  let db = Core.Session.db s in
  let config =
    {
      Exec.Engine_config.robust with
      Exec.Engine_config.work_limit = max_int / 2;
      row_limit = max_int / 2;
    }
  in
  List.iter
    (fun (jq : Workload.Job.query) ->
      let q = Core.Session.job s jq.Workload.Job.name in
      let graph = q.Core.Session.graph in
      let tc = Core.Session.true_cardinalities s q in
      let truth set = int_of_float (Cardest.True_card.card tc set) in
      List.iter
        (fun estimator ->
          let choice = Core.Session.optimize s ~estimator q in
          let plan = choice.Core.Session.plan in
          let label = Printf.sprintf "%s (%s plan)" jq.Workload.Job.name estimator in
          let seen = ref 0 in
          let observe set ~rows ~work:_ =
            incr seen;
            Alcotest.(check int)
              (Printf.sprintf "%s: checkpoint %s" label
                 (String.concat "," (List.map string_of_int (Bitset.to_list set))))
              (truth set) rows
          in
          let r =
            Exec.Executor.run ~db ~graph ~config
              ~size_est:choice.Core.Session.estimator.Cardest.Estimator.subset
              ~observe ~projections:q.Core.Session.projections plan
          in
          Alcotest.(check bool) (label ^ ": finished") false
            r.Exec.Executor.timed_out;
          Alcotest.(check int) (label ^ ": result rows")
            (truth (QG.full_set graph)) r.Exec.Executor.rows;
          Alcotest.(check int) (label ^ ": one checkpoint per node")
            (Reopt.Driver.checkpoint_count plan) !seen)
        [ "PostgreSQL"; "true" ])
    Workload.Job.all

(* The per-row kernels allocate nothing. All 113 JOB queries run on
   the serial path (no pool) under their PostgreSQL-estimate plans at
   two scales, each once untimed (lazy indexes, plan and statistics
   caches) and once measured. What a run allocates per plan node —
   batches, readers, stage closures — does not grow with the data, so
   the minor words must grow by less than half a word per added work
   unit. A closure or an option per probed row costs several. *)
let test_kernels_allocation_free () =
  let config =
    {
      Exec.Engine_config.robust with
      Exec.Engine_config.work_limit = max_int / 2;
      row_limit = max_int / 2;
    }
  in
  let measure scale =
    let s = Core.Session.create ~seed:11 ~scale () in
    List.fold_left
      (fun (words, work) (jq : Workload.Job.query) ->
        let q = Core.Session.job s jq.Workload.Job.name in
        let choice = Core.Session.optimize s ~estimator:"PostgreSQL" q in
        ignore (Core.Session.run s ~engine:config q choice);
        let w0 = Gc.minor_words () in
        let r = Core.Session.run s ~engine:config q choice in
        let w1 = Gc.minor_words () in
        Alcotest.(check bool) (jq.Workload.Job.name ^ ": finished") false
          r.Exec.Executor.timed_out;
        (words +. (w1 -. w0), work + r.Exec.Executor.work))
      (0.0, 0) Workload.Job.all
  in
  let small_words, small_work = measure 0.001 in
  let large_words, large_work = measure 0.004 in
  Alcotest.(check bool) "work grows with scale" true (large_work > small_work);
  let per_unit =
    (large_words -. small_words) /. float_of_int (large_work - small_work)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.3f minor words per added work unit (< 0.5)" per_unit)
    true (per_unit < 0.5)

(* No domain changes a GC parameter: creating a pool, mapping over it
   and running per-slot bodies leaves the caller's minor heap size and
   space overhead as they were, and every worker sees the same. *)
let test_pool_keeps_gc_settings () =
  let settings () =
    let g = Gc.get () in
    (g.Gc.minor_heap_size, g.Gc.space_overhead)
  in
  let before = settings () in
  let pool = Util.Domain_pool.create ~domains:3 in
  let seen =
    Fun.protect
      ~finally:(fun () -> Util.Domain_pool.shutdown pool)
      (fun () ->
        let mapped =
          Util.Domain_pool.map_array pool (fun _ -> settings ()) (Array.make 64 ())
        in
        let slots = Array.make (Util.Domain_pool.size pool) before in
        Util.Domain_pool.run_workers pool (fun slot -> slots.(slot) <- settings ());
        Array.to_list mapped @ Array.to_list slots)
  in
  let pair = Alcotest.(pair int int) in
  List.iter (Alcotest.check pair "worker settings" before) seen;
  Alcotest.check pair "caller settings" before (settings ())

(* Row ids are stored in 32 bits: a write outside [0, 2^31) raises
   instead of wrapping to another row, and an index outside the buffer
   raises like an array access. *)
let test_rowbuf_range_guard () =
  let module R = Exec.Rowbuf in
  let b = R.create 3 in
  List.iter
    (fun v ->
      R.set b 1 v;
      Alcotest.(check int) (Printf.sprintf "%d round-trips" v) v (R.get b 1))
    [ 0; (1 lsl 31) - 1 ];
  let outside = Invalid_argument "Rowbuf.set: row id outside [0, 2^31)" in
  List.iter
    (fun v ->
      Alcotest.check_raises (Printf.sprintf "%d rejected" v) outside (fun () ->
          R.set b 1 v);
      Alcotest.(check int) "slot unchanged" ((1 lsl 31) - 1) (R.get b 1))
    [ 1 lsl 31; -1 ];
  let bounds = Invalid_argument "index out of bounds" in
  Alcotest.check_raises "write past the end" bounds (fun () -> R.set b 3 0);
  Alcotest.check_raises "read past the end" bounds (fun () -> ignore (R.get b 3));
  let empty = R.absent 2 in
  Alcotest.(check int) "absent reads -1" (-1) (R.get empty 0);
  R.copy empty 0 b 2;
  Alcotest.(check int) "copy carries -1" (-1) (R.get b 2);
  Alcotest.(check int) "4 bytes a slot" 12 (R.byte_size b)

(* The paper's underestimated build side: PostgreSQL estimates 25c's
   build input at one row and 376,314 rows get stored, tuples and key
   hashes and chain links. Run serially under its PostgreSQL plan at
   scale 0.005, Executor.run allocates 2.45 M major-heap words with
   4-byte row ids; with 8-byte ints it allocated 4.46 M. *)
let test_build_side_major_words () =
  let s = Core.Session.create ~seed:42 ~scale:0.005 () in
  let q = Core.Session.job s "25c" in
  let choice = Core.Session.optimize s ~estimator:"PostgreSQL" q in
  ignore (Core.Session.run s q choice);
  Gc.minor ();
  let w0 = (Gc.quick_stat ()).Gc.major_words in
  let r = Core.Session.run s q choice in
  let words = (Gc.quick_stat ()).Gc.major_words -. w0 in
  Alcotest.(check bool) "finished" false r.Exec.Executor.timed_out;
  Alcotest.(check int) "rows" 74_242 r.Exec.Executor.rows;
  Alcotest.(check bool)
    (Printf.sprintf "%.0f major words (< 3,000,000)" words)
    true (words < 3_000_000.)

let test_engine_configs () =
  Alcotest.(check bool) "default allows NL" true
    Exec.Engine_config.default_9_4.Exec.Engine_config.allow_nl_join;
  Alcotest.(check bool) "no_nl forbids" false
    Exec.Engine_config.no_nl.Exec.Engine_config.allow_nl_join;
  Alcotest.(check bool) "robust resizes" true
    Exec.Engine_config.robust.Exec.Engine_config.resize_hash_tables

let suite =
  [
    Alcotest.test_case "join table basics" `Quick test_join_table_basics;
    Alcotest.test_case "undersized chains" `Quick test_join_table_undersized_chains;
    Alcotest.test_case "resizing" `Quick test_join_table_resizing;
    Alcotest.test_case "probe charges 1 + chain/4" `Quick
      test_join_table_chain_charge;
    seal_charges_doubling_schedule;
    join_table_finds_all;
    all_plans_agree;
    merge_join_agrees_with_hash;
    plans_match_oracle;
    plans_match_oracle_on_pool;
    Alcotest.test_case "live-slot rule" `Quick test_live_relations;
    Alcotest.test_case "COUNT-only merge-join root" `Quick
      test_count_only_merge_root;
    Alcotest.test_case "merge join slower in memory" `Quick
      test_merge_join_costs_more_than_hash;
    Alcotest.test_case "merge output straddles staging segments" `Quick
      test_merge_output_straddles_segments;
    Alcotest.test_case "rows match truth" `Quick test_executor_rows_match_truth;
    Alcotest.test_case "min projections" `Quick test_executor_mins;
    Alcotest.test_case "a column too wide to pack, end to end" `Quick test_wide_column;
    Alcotest.test_case "timeout" `Quick test_executor_timeout;
    Alcotest.test_case "NL gating" `Quick test_nl_disabled_raises;
    Alcotest.test_case "INL needs index" `Quick test_inl_without_index_raises;
    Alcotest.test_case "NL quadratic work" `Quick test_nl_charges_quadratic_work;
    Alcotest.test_case "undersized hash penalty" `Quick
      test_undersized_hash_table_penalty;
    Alcotest.test_case "checkpoints match the truth oracle" `Slow
      test_checkpoints_match_truth;
    Alcotest.test_case "kernels allocate nothing per row" `Slow
      test_kernels_allocation_free;
    Alcotest.test_case "pool keeps the GC settings" `Quick
      test_pool_keeps_gc_settings;
    Alcotest.test_case "row ids outside [0, 2^31) rejected" `Quick
      test_rowbuf_range_guard;
    Alcotest.test_case "25c build side in major words" `Quick
      test_build_side_major_words;
    Alcotest.test_case "engine configs" `Quick test_engine_configs;
  ]
