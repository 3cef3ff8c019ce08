(* Kernel tests for the allocation-free hot paths: the vectorized
   executor against embedded golden fixtures, the selection-vector
   predicate compiler against the row-level closures,
   and the packed-key group table behind True_card.

   The goldens were captured from the pre-vectorization executor at
   seed 5, scale 0.02 (PostgreSQL estimates, Cmm cost model, robust
   engine): query name, result rows, work units, timed_out, the true
   full-join cardinality, and the projected MINs. Any change to work
   accounting, predicate semantics, join ordering inputs, or the
   true-cardinality layer shows up here as a diff against real
   end-to-end results. *)

module Harness = Experiments.Harness
module GT = Cardest.Group_table
module QG = Query.Query_graph

let goldens =
  [
    ("1a", 1, 1331, false, 1, ["'Warner Films 174'"; "'The Secret Garden'"]);
    ("1b", 17, 2092, false, 17, ["'Meridian International'"; "'Letter of the Journey (#3.11)'"]);
    ("1c", 7, 1399, false, 7, ["'Warner Cinema 276'"; "'Silence of the Dream'"]);
    ("2a", 369, 4459, false, 369, ["'Dream of the Heart'"]);
    ("2b", 106, 3271, false, 106, ["'Dream of the Heart'"]);
    ("2c", 157, 3463, false, 157, ["'Dream of the Heart'"]);
    ("3a", 27, 1729, false, 27, ["'The Day Dream'"; "'Drama'"]);
    ("3b", 1, 1337, false, 1, ["'The Shadow Spring 1562'"; "'Norway'"]);
    ("3c", 24, 1662, false, 24, ["'Dream of the Heart'"; "'USA:2 February 2008'"]);
    ("3d", 0, 1259, false, 0, ["NULL"; "NULL"]);
    ("4a", 2, 1787, false, 2, ["'9.1'"; "'Road of the Return'"]);
    ("4b", 8, 1883, false, 8, ["'9.1'"; "'The Garden Summer'"]);
    ("4c", 4, 2332, false, 4, ["'35478'"; "'The Heart Day'"]);
    ("5a", 0, 2593, false, 0, ["NULL"; "NULL"]);
    ("5b", 79, 3737, false, 79, ["'Silence of the Dream'"; "'Meridian International'"]);
    ("5c", 51, 6494, false, 51, ["'Dream of the Heart'"; "'Eastern Films'"]);
    ("5d", 0, 2685, false, 0, ["NULL"; "NULL"]);
    ("6a", 24, 6948, false, 24, ["'Silence of the Dream'"; "'Moore, Robert 1502'"]);
    ("6b", 579, 9955, false, 579, ["'Dream of the Heart'"; "'Hall, Frank 394'"]);
    ("6c", 92, 7119, false, 92, ["'Dream of the Heart'"; "'Green, Clara 1945'"]);
    ("7a", 4, 5299, false, 4, ["'Anderson, Andrew 1421'"; "'Letter of the Journey (#3.11)'"]);
    ("7b", 18, 4205, false, 18, ["'Williams, James 1793'"; "'Summer of the Island'"]);
    ("7c", 24, 4600, false, 24, ["'Hall, Frank 394'"; "'Dream of the Heart'"]);
    ("8a", 133, 6732, false, 133, ["'Davis, Mark 1820'"; "'Meridian International'"]);
    ("8b", 535, 35861, false, 535, ["'Green, Clara 1945'"; "'Meridian International'"]);
    ("8c", 6, 5543, false, 6, ["'Anderson, William 1590'"; "'Universal Media 152'"]);
    ("8d", 13, 3313, false, 13, ["'King, Andrew 1484'"; "'Meridian International'"]);
    ("9a", 0, 4649, false, 0, ["NULL"; "NULL"]);
    ("9b", 9, 5331, false, 9, ["'James Nelson'"; "'Shadow of the Stranger'"]);
    ("9c", 0, 4648, false, 0, ["NULL"; "NULL"]);
    ("9d", 0, 6860, false, 0, ["NULL"; "NULL"]);
    ("10a", 256, 22073, false, 256, ["'Queen'"; "'Silence of the Dream'"]);
    ("10b", 4, 2927, false, 4, ["'Clara Hall'"; "'The Dream Summer'"]);
    ("10c", 0, 4737, false, 0, ["NULL"; "NULL"]);
    ("11a", 35, 3908, false, 35, ["'Silence of the Dream'"; "'Meridian International'"]);
    ("11b", 151, 9030, false, 151, ["'Silence of the Dream'"; "'Meridian International'"]);
    ("11c", 0, 3197, false, 0, ["NULL"; "NULL"]);
    ("11d", 0, 3129, false, 0, ["NULL"; "NULL"]);
    ("12a", 71, 4981, false, 71, ["'Meridian International'"; "'9.0'"]);
    ("12b", 0, 2956, false, 0, ["NULL"; "NULL"]);
    ("12c", 0, 3724, false, 0, ["NULL"; "NULL"]);
    ("12d", 305, 7896, false, 305, ["'Meridian International'"; "'1'"]);
    ("13a", 0, 4705, false, 0, ["NULL"; "NULL"; "NULL"]);
    ("13b", 0, 5180, false, 0, ["NULL"; "NULL"; "NULL"]);
    ("13c", 0, 4328, false, 0, ["NULL"; "NULL"; "NULL"]);
    ("13d", 246, 44795, false, 246, ["'Meridian International'"; "'USA:2 February 2008'"; "'7.6'"]);
    ("14a", 0, 6026, false, 0, ["NULL"; "NULL"]);
    ("14b", 0, 3973, false, 0, ["NULL"; "NULL"]);
    ("14c", 1, 14550, false, 1, ["'English'"; "'Fire of the Winter (#9.13)'"]);
    ("14d", 0, 4169, false, 0, ["NULL"; "NULL"]);
    ("15a", 1312, 35245, false, 1312, ["'Dream of the Heart'"; "'House of the Journey (aka 2)'"]);
    ("15b", 0, 2667, false, 0, ["NULL"; "NULL"]);
    ("15c", 67, 3722, false, 67, ["'Dream of the Heart'"; "'Dream of the Heart (aka 7)'"]);
    ("16a", 8204, 233208, false, 8204, ["'Steven Wright'"; "'Dream of the Heart'"]);
    ("16b", 16, 7609, false, 16, ["'Victor Wright'"; "'Secret of the Stranger 1421'"]);
    ("16c", 124, 42620, false, 124, ["'George Baker'"; "'Dream of the Heart'"]);
    ("16d", 284, 9982, false, 284, ["'Victor Edwards'"; "'Dream of the Heart'"]);
    ("17a", 859, 25352, false, 859, ["'Baker, Daniel 1583'"; "'character-name-in-title'"]);
    ("17b", 0, 18154, false, 0, ["NULL"; "NULL"]);
    ("17c", 0, 6338, false, 0, ["NULL"; "NULL"]);
    ("18a", 64, 5745, false, 64, ["'Williams, James 1793'"; "'26 June 1930'"]);
    ("18b", 2, 4586, false, 2, ["'Adams, Maria 1507'"; "'25 October 1954'"]);
    ("18c", 39, 6081, false, 39, ["'Hall, Frank 394'"; "'10 April 1903'"]);
    ("19a", 8, 7442, false, 8, ["'Green, Clara 1945'"; "'Dance of the Journey'"]);
    ("19b", 5, 6907, false, 5, ["'King, Michael 232'"; "'The Day River (#11.1)'"]);
    ("19c", 0, 4620, false, 0, ["NULL"; "NULL"]);
    ("20a", 0, 3715, false, 0, ["NULL"; "NULL"]);
    ("20b", 0, 4675, false, 0, ["NULL"; "NULL"]);
    ("20c", 3, 3785, false, 3, ["'Dream of the Heart'"; "'Batman'"]);
    ("21a", 2, 2775, false, 2, ["'Eastern Films'"; "'Sci-Fi'"]);
    ("21b", 0, 2669, false, 0, ["NULL"; "NULL"]);
    ("21c", 20, 5307, false, 20, ["'Columbia Media'"; "'155'"]);
    ("22a", 42, 5819, false, 42, ["'Meridian International'"; "'murder'"]);
    ("22b", 0, 5340, false, 0, ["NULL"; "NULL"]);
    ("22c", 0, 13122, false, 0, ["NULL"; "NULL"]);
    ("22d", 0, 5036, false, 0, ["NULL"; "NULL"]);
    ("23a", 4, 5104, false, 4, ["'The River River 134'"; "'USA:22 June 1991'"]);
    ("23b", 8, 3106, false, 8, ["'Silence of the Dream'"; "'Mystery'"]);
    ("23c", 0, 2927, false, 0, ["NULL"; "NULL"]);
    ("24a", 234, 16277, false, 234, ["'Queen'"; "'Johnson, George 1978'"]);
    ("24b", 1, 6436, false, 1, ["'Daniel Edwards'"; "'Collins, Laura 1894'"]);
    ("24c", 0, 6473, false, 0, ["NULL"; "NULL"]);
    ("24d", 0, 6275, false, 0, ["NULL"; "NULL"]);
    ("25a", 20, 15131, false, 20, ["'Horror'"; "'70566'"; "'Davis, Mark 1820'"]);
    ("25b", 0, 10840, false, 0, ["NULL"; "NULL"; "NULL"]);
    ("25c", 265, 45352, false, 265, ["'Thriller'"; "'80166'"; "'Davis, Mark 1820'"]);
    ("26a", 1, 5590, false, 1, ["'Karen King'"; "'The Day Dream'"]);
    ("26b", 0, 8992, false, 0, ["NULL"; "NULL"]);
    ("26c", 0, 5444, false, 0, ["NULL"; "NULL"]);
    ("27a", 43, 2187, false, 43, ["'Silence of the Dream'"; "'Road of the Return'"]);
    ("27b", 0, 1386, false, 0, ["NULL"; "NULL"]);
    ("27c", 0, 1645, false, 0, ["NULL"; "NULL"]);
    ("28a", 17, 20734, false, 17, ["'Meridian International'"; "'Thriller'"; "'Dream of the Heart'"]);
    ("28b", 108, 19497, false, 108, ["'Meridian International'"; "'Action'"; "'Silence of the Dream'"]);
    ("28c", 362, 28460, false, 362, ["'Meridian International'"; "'Drama'"; "'The Day Dream'"]);
    ("28d", 0, 4587, false, 0, ["NULL"; "NULL"; "NULL"]);
    ("29a", 0, 4949, false, 0, ["NULL"; "NULL"]);
    ("29b", 0, 4981, false, 0, ["NULL"; "NULL"]);
    ("29c", 0, 6575, false, 0, ["NULL"; "NULL"]);
    ("30a", 14, 9473, false, 14, ["'Horror'"; "'7.5'"; "'Davis, Mark 1820'"]);
    ("30b", 0, 7111, false, 0, ["NULL"; "NULL"; "NULL"]);
    ("30c", 0, 7277, false, 0, ["NULL"; "NULL"; "NULL"]);
    ("30d", 27, 12594, false, 27, ["'USA:2 February 2008'"; "'7.6'"; "'Anderson, William 1590'"]);
    ("31a", 53, 32959, false, 53, ["'Drama'"; "'Meridian International'"]);
    ("31b", 0, 6341, false, 0, ["NULL"; "NULL"]);
    ("31c", 0, 19788, false, 0, ["NULL"; "NULL"]);
    ("31d", 0, 19400, false, 0, ["NULL"; "NULL"]);
    ("32a", 3, 2026, false, 3, ["'Silence of the Dream'"; "'Night of the Return 903'"]);
    ("32b", 5, 2091, false, 5, ["'Silence of the Dream'"; "'Night of the Return 903'"]);
    ("32c", 1, 2021, false, 1, ["'The Ice River 965'"; "'Dream of the Heart'"]);
    ("33a", 902, 57827, false, 902, ["'Davis, Mark 1820'"; "'Meridian International'"; "'7.2'"]);
    ("33b", 0, 6390, false, 0, ["NULL"; "NULL"; "NULL"]);
    ("33c", 0, 6778, false, 0, ["NULL"; "NULL"; "NULL"]);
  ]

(* One harness shared by the workload-level tests below; the fixture
   parameters must match the golden capture exactly. *)
let harness = lazy (Harness.create ~seed:5 ~scale:0.0004 ())

let run_query h (q : Harness.qctx) =
  let est = Harness.estimator h q "PostgreSQL" in
  let plan, _ = Harness.plan_with h q ~est ~model:Cost.Cost_model.cmm () in
  let r =
    Harness.execute h q ~plan ~size_est:est.Cardest.Estimator.subset
      ~engine:Exec.Engine_config.robust
  in
  let truth = Harness.truth q in
  let full = QG.full_set q.Harness.graph in
  ( r.Exec.Executor.rows,
    r.Exec.Executor.work,
    r.Exec.Executor.timed_out,
    Printf.sprintf "%.0f" (Cardest.True_card.card truth full),
    List.map Storage.Value.to_string r.Exec.Executor.mins )

(* Every query against the pre-change goldens: rows, deterministic work,
   timeout status, exact cardinality and MINs all byte-identical. *)
let test_golden_workload () =
  let h = Lazy.force harness in
  List.iter
    (fun (name, rows, work, timed_out, truth, mins) ->
      let grows, gwork, gtimed, gtruth, gmins = run_query h (Harness.find h name) in
      Alcotest.(check int) (name ^ " rows") rows grows;
      Alcotest.(check int) (name ^ " work") work gwork;
      Alcotest.(check bool) (name ^ " timed_out") timed_out gtimed;
      Alcotest.(check string)
        (name ^ " true cardinality")
        (string_of_int truth) gtruth;
      Alcotest.(check (list string)) (name ^ " mins") mins gmins)
    goldens

(* compile_selector must select exactly the rows compile's row closure
   accepts, in ascending order, over every base-table predicate of the
   workload (LIKEs, INs, BETWEENs, ORs, IS NULLs, string compares). *)
let test_selector_matches_compile () =
  let h = Lazy.force harness in
  let chunk = 512 in
  let sel = Array.make chunk 0 in
  let checked = ref 0 in
  Array.iter
    (fun (q : Harness.qctx) ->
      Array.iter
        (fun (r : QG.relation) ->
          if r.QG.preds <> [] then begin
            let table = r.QG.table in
            let n = Storage.Table.row_count table in
            let pred = Query.Predicate.compile table r.QG.preds in
            let fill = Query.Predicate.compile_selector table r.QG.preds in
            let by_closure = ref [] in
            for row = n - 1 downto 0 do
              if pred row then by_closure := row :: !by_closure
            done;
            let by_selector = ref [] in
            let row = ref 0 in
            while !row < n do
              let stop = min n (!row + chunk) in
              let m = fill sel !row stop in
              for k = 0 to m - 1 do
                by_selector := sel.(k) :: !by_selector
              done;
              row := stop
            done;
            incr checked;
            Alcotest.(check (list int))
              (Printf.sprintf "%s/%s rows" q.Harness.query.Workload.Job.name
                 (Storage.Table.name table))
              !by_closure
              (List.rev !by_selector)
          end)
        (QG.relations q.Harness.graph))
    h.Harness.queries;
  Alcotest.(check bool) "predicates were actually checked" true (!checked > 100)

(* ------------------------------------------------------------------ *)
(* Packed-key encoding                                                  *)

let null = Storage.Value.null_code

let test_packed_roundtrip () =
  let field_max = (1 lsl 31) - 2 in
  List.iter
    (fun v ->
      Alcotest.(check bool) (Printf.sprintf "fits %d" v) true (GT.Packed.fits v);
      let e = GT.Packed.encode v in
      Alcotest.(check bool)
        (Printf.sprintf "encode %d is non-negative" v)
        true (e >= 0);
      Alcotest.(check int)
        (Printf.sprintf "decode (encode %d)" v)
        v (GT.Packed.decode e))
    [ null; 0; 1; 42; field_max; max_int - 1 ];
  Alcotest.(check bool) "max_int does not fit" false (GT.Packed.fits max_int);
  Alcotest.(check bool) "negative non-NULL does not fit" false
    (GT.Packed.fits (-5));
  Alcotest.(check int) "NULL encodes to slot 0" 0 (GT.Packed.encode null);
  let vals = [ null; 0; 1; 12345; field_max ] in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let k = GT.Packed.pack2 a b in
          Alcotest.(check bool)
            (Printf.sprintf "pack2 %d %d is non-negative" a b)
            true (k >= 0);
          Alcotest.(check int) "unpack2_fst" a (GT.Packed.unpack2_fst k);
          Alcotest.(check int) "unpack2_snd" b (GT.Packed.unpack2_snd k))
        vals)
    vals;
  Alcotest.(check bool) "2^31-2 fits a pair field" true (GT.Packed.fits2 field_max);
  Alcotest.(check bool) "2^31-1 does not fit a pair field" false
    (GT.Packed.fits2 (field_max + 1))

(* ------------------------------------------------------------------ *)
(* Group table                                                          *)

(* Multiplicity of the scratch key, 0.0 when absent. *)
let find_scratch t =
  let id = GT.find t in
  if id < 0 then 0.0 else GT.count t id

let add t a b delta =
  let s = GT.scratch t in
  s.(0) <- a;
  s.(1) <- b;
  GT.add_scratch t delta

let find t a b =
  let s = GT.scratch t in
  s.(0) <- a;
  s.(1) <- b;
  find_scratch t

let test_group_table_ops () =
  let t = GT.create ~arity:2 () in
  Alcotest.(check bool) "arity 2 starts packed" true (GT.is_packed t);
  add t 1 2 1.0;
  add t 3 4 2.0;
  add t 1 2 0.5;
  add t null 7 4.0;
  add t 0 7 8.0;
  Alcotest.(check int) "distinct groups" 4 (GT.groups t);
  Alcotest.(check (float 0.0)) "accumulated" 1.5 (find t 1 2);
  Alcotest.(check (float 0.0)) "second group" 2.0 (find t 3 4);
  Alcotest.(check (float 0.0)) "NULL key is its own group" 4.0 (find t null 7);
  Alcotest.(check (float 0.0)) "zero key distinct from NULL" 8.0 (find t 0 7);
  Alcotest.(check (float 0.0)) "absent key" 0.0 (find t 9 9);
  Alcotest.(check (float 0.0)) "count by id" 1.5 (GT.count t 0);
  Alcotest.(check int) "component 0 of group 0" 1 (GT.component t 0 0);
  Alcotest.(check int) "component 1 of group 0" 2 (GT.component t 0 1);
  Alcotest.(check int) "NULL component survives" null (GT.component t 2 0);
  let order = ref [] in
  GT.iter t (fun id c -> order := (id, c) :: !order);
  Alcotest.(check (list (pair int (float 0.0))))
    "iteration in insertion order"
    [ (0, 1.5); (1, 2.0); (2, 4.0); (3, 8.0) ]
    (List.rev !order);
  Alcotest.(check (float 1e-9)) "total" 15.5 (GT.total t);
  Alcotest.(check bool) "still packed" true (GT.is_packed t)

let test_group_table_migration () =
  let t = GT.create ~arity:2 () in
  (* Enough keys to force several growth rounds while packed. *)
  for i = 0 to 299 do
    add t i (2 * i) 1.0
  done;
  Alcotest.(check bool) "packed before the misfit" true (GT.is_packed t);
  (* A key outside the packed domain migrates the whole table. *)
  add t (-5) 3 2.5;
  Alcotest.(check bool) "arena after the misfit" false (GT.is_packed t);
  Alcotest.(check int) "group count preserved" 301 (GT.groups t);
  for i = 0 to 299 do
    Alcotest.(check (float 0.0))
      (Printf.sprintf "count of (%d, %d) survives migration" i (2 * i))
      1.0
      (find t i (2 * i))
  done;
  Alcotest.(check (float 0.0)) "the misfit key" 2.5 (find t (-5) 3);
  Alcotest.(check int) "ids keep insertion order" 7 (GT.component t 7 0);
  add t 12 24 1.0;
  Alcotest.(check (float 0.0)) "accumulation still works" 2.0 (find t 12 24);
  Alcotest.(check (float 1e-9)) "total" 303.5 (GT.total t);
  (* Wide keys never pack. *)
  let w = GT.create ~arity:3 () in
  Alcotest.(check bool) "arity 3 starts in the arena" false (GT.is_packed w);
  let s = GT.scratch w in
  s.(0) <- 1;
  s.(1) <- 2;
  s.(2) <- 3;
  GT.add_scratch w 4.0;
  Alcotest.(check (float 0.0)) "arena lookup" 4.0 (find_scratch w);
  (* Arity-1 tables migrate on a value whose encoding would wrap. *)
  let u = GT.create ~arity:1 () in
  let su = GT.scratch u in
  su.(0) <- 11;
  GT.add_scratch u 1.0;
  su.(0) <- max_int;
  GT.add_scratch u 2.0;
  Alcotest.(check bool) "arity 1 migrated" false (GT.is_packed u);
  su.(0) <- 11;
  Alcotest.(check (float 0.0)) "narrow key survives" 1.0 (find_scratch u);
  su.(0) <- max_int;
  Alcotest.(check (float 0.0)) "wide value found" 2.0 (find_scratch u)

(* A table's groups by id (key and count), then each probe's group id
   and multiplicity, as text. *)
let snapshot t probes =
  let b = Buffer.create 256 in
  Printf.bprintf b "packed=%b groups=%d\n" (GT.is_packed t) (GT.groups t);
  for id = 0 to GT.groups t - 1 do
    Printf.bprintf b "%d: (%d, %d) %h\n" id (GT.component t id 0) (GT.component t id 1)
      (GT.count t id)
  done;
  List.iter
    (fun (a, c) ->
      let m = find t a c in
      Printf.bprintf b "find (%d, %d) = %d, %h\n" a c (GT.find t) m)
    probes;
  Buffer.contents b

let test_group_table_clear () =
  let fill t keys = List.iter (fun (a, c, delta) -> add t a c delta) keys in
  let small = [ (1, 2, 1.0); (3, 4, 2.0); (1, 2, 0.5); (null, 7, 4.0); (0, 7, 8.0) ] in
  let many = List.init 300 (fun i -> (i, 2 * i, 1.0)) in
  let misfit = [ (-5, 3, 2.5) ] in
  let probes = [ (1, 2); (3, 4); (null, 7); (0, 7); (9, 9); (-5, 3); (299, 598) ] in
  (* Clear [t], refill it with [keys], and compare with a fresh table. *)
  let refill what t keys =
    GT.clear t;
    fill t keys;
    let fresh = GT.create ~arity:2 () in
    fill fresh keys;
    Alcotest.(check string) what (snapshot fresh probes) (snapshot t probes)
  in
  let t = GT.create ~arity:2 () in
  fill t many;
  (* 300 groups fill most slots: the clear resets the whole slot array. *)
  refill "packed, cleared after many groups" t small;
  (* Four groups in a grown table: the clear empties their slots only.
     Refilled in reverse, each old key comes back under another id, so
     a slot left behind would be found again. *)
  refill "packed, cleared after few groups" t (List.rev small @ many);
  fill t misfit;
  Alcotest.(check bool) "migrated to the arena" false (GT.is_packed t);
  refill "cleared after migrating with many groups" t (small @ misfit);
  Alcotest.(check bool) "a misfit migrates the cleared table again" false (GT.is_packed t);
  refill "cleared after migrating with few groups" t (misfit @ List.rev small);
  refill "cleared after few groups in the arena" t small;
  Alcotest.(check bool) "packed again" true (GT.is_packed t);
  refill "cleared twice" t (many @ misfit @ small)

(* The id-returning insert plus an add into the live count array, as
   True_card's message loop does it, builds the same table as
   [add_scratch]: the same groups under the same ids with bit-equal
   counts, packed, after migrating, and cleared back to packed. *)
let test_group_table_find_or_add () =
  let add_by_id t a b delta =
    let s = GT.scratch t in
    s.(0) <- a;
    s.(1) <- b;
    let id = GT.find_or_add t in
    let counts = GT.counts t in
    counts.(id) <- counts.(id) +. delta
  in
  let small = [ (1, 2, 1.0); (3, 4, 2.0); (1, 2, 0.5); (null, 7, 4.0); (0, 7, 8.0) ] in
  let many = List.init 300 (fun i -> (i mod 97, 2 * i, 0.1 *. float_of_int (i + 1))) in
  let misfit = [ (-5, 3, 2.5); (1, 2, 0.25) ] in
  let probes = [ (1, 2); (3, 4); (null, 7); (0, 7); (9, 9); (-5, 3); (96, 386) ] in
  let a = GT.create ~arity:2 () and b = GT.create ~arity:2 () in
  let both what keys =
    List.iter (fun (x, y, d) -> add a x y d) keys;
    List.iter (fun (x, y, d) -> add_by_id b x y d) keys;
    Alcotest.(check string) what (snapshot a probes) (snapshot b probes)
  in
  both "packed" (small @ many);
  Alcotest.(check bool) "still packed" true (GT.is_packed b);
  both "migrated to the arena" misfit;
  Alcotest.(check bool) "arena" false (GT.is_packed b);
  both "arena after migrating" (List.rev small @ many);
  GT.clear a;
  GT.clear b;
  both "cleared, packed again" (many @ small);
  Alcotest.(check bool) "packed after the clear" true (GT.is_packed b);
  (* Wide keys live in the arena from the start. *)
  let wide = GT.create ~arity:3 () and wide' = GT.create ~arity:3 () in
  for i = 0 to 199 do
    let fill t =
      let s = GT.scratch t in
      s.(0) <- i mod 7;
      s.(1) <- i mod 11;
      s.(2) <- i mod 5
    in
    fill wide;
    GT.add_scratch wide (float_of_int i);
    fill wide';
    let id = GT.find_or_add wide' in
    (GT.counts wide').(id) <- (GT.counts wide').(id) +. float_of_int i
  done;
  Alcotest.(check int) "arity 3: same groups" (GT.groups wide) (GT.groups wide');
  for id = 0 to GT.groups wide - 1 do
    for f = 0 to 2 do
      Alcotest.(check int) "arity 3: same key" (GT.component wide id f)
        (GT.component wide' id f)
    done;
    Alcotest.(check int64) "arity 3: bit-equal count"
      (Int64.bits_of_float (GT.count wide id))
      (Int64.bits_of_float (GT.count wide' id))
  done

let suite =
  [
    Alcotest.test_case "packed key round-trips" `Quick test_packed_roundtrip;
    Alcotest.test_case "group table operations" `Quick test_group_table_ops;
    Alcotest.test_case "group table migration" `Quick test_group_table_migration;
    Alcotest.test_case "group table clear" `Quick test_group_table_clear;
    Alcotest.test_case "group table find_or_add = add_scratch" `Quick
      test_group_table_find_or_add;
    Alcotest.test_case "selection vectors match row closures" `Slow
      test_selector_matches_compile;
    Alcotest.test_case "full workload matches pre-change goldens" `Slow
      test_golden_workload;
  ]
