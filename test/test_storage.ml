(* Tests for the storage library: dictionaries, columns, tables,
   indexes, and the catalog with its physical-design switching. *)

let check = Alcotest.check

(* --- Dict --------------------------------------------------------------- *)

let dict_of strings = Storage.Dict.encode (Array.of_list (List.map Option.some strings))

let test_dict_roundtrip () =
  let d, codes = dict_of [ "alpha"; "beta"; "alpha" ] in
  let a = codes.(0) and b = codes.(1) and a' = codes.(2) in
  check Alcotest.int "stable code" a a';
  Alcotest.(check bool) "codes differ" true (a <> b);
  check Alcotest.string "decode" "beta" (Storage.Dict.get d b);
  check Alcotest.int "size" 2 (Storage.Dict.size d);
  check Alcotest.(option int) "find" (Some a) (Storage.Dict.find_opt d "alpha");
  check Alcotest.(option int) "find missing" None (Storage.Dict.find_opt d "gamma")

let test_dict_get_invalid () =
  let d, _ = dict_of [] in
  Alcotest.check_raises "unknown code" (Invalid_argument "Dict.get: unknown code")
    (fun () -> ignore (Storage.Dict.get d 3))

let test_dict_matching_codes () =
  let d, _ = dict_of [ "cat"; "car"; "dog" ] in
  let bitmap = Storage.Dict.matching_codes d (fun s -> s.[0] = 'c') in
  check Alcotest.(array bool) "c-prefixed" [| true; true; false |] bitmap

(* A dictionary holds its strings in an exact-size array and no intern
   table: beyond the strings and one word per code, it retains the same
   words for 1000 strings as for one. *)
let test_dict_growth () =
  let overhead n =
    let strings = List.init (2 * n) (fun i -> string_of_int (i mod n)) in
    let d, _ = dict_of strings in
    let payload =
      List.fold_left (fun acc code -> acc + 1 + Obj.reachable_words (Obj.repr (Storage.Dict.get d code)))
        0 (List.init (Storage.Dict.size d) Fun.id)
    in
    (d, Obj.reachable_words (Obj.repr d) - payload)
  in
  let d, words = overhead 1000 in
  check Alcotest.int "1000 distinct" 1000 (Storage.Dict.size d);
  check Alcotest.string "decode mid" "517" (Storage.Dict.get d 517);
  check Alcotest.int "exact size: overhead of 1000 strings = of one" (snd (overhead 1)) words

let dict_intern_roundtrip =
  Support.qcheck_case ~name:"dict intern/get roundtrip"
    QCheck.(small_list (string_of_size (QCheck.Gen.int_range 0 12)))
    (fun strings ->
      let d, codes = dict_of strings in
      List.for_all2 (fun s c -> Storage.Dict.get d c = s) strings (Array.to_list codes)
      && Storage.Dict.size d = List.length (List.sort_uniq compare strings))

(* Strings built from tokens that share prefixes, include the empty
   string, a NUL and non-ASCII bytes, and repeat often. *)
let dict_cells =
  let token = QCheck.Gen.oneofl [ "a"; "ab"; "b"; "\xc3\xa9"; "\xff"; "\x00"; "z" ] in
  let str = QCheck.Gen.(map (String.concat "") (list_size (int_range 0 3) token)) in
  let cell = QCheck.Gen.(frequency [ (1, return None); (6, map Option.some str) ]) in
  QCheck.make
    ~print:QCheck.Print.(array (option string))
    QCheck.Gen.(array_size (int_range 0 40) cell)

(* Codes in first-seen order that [get] inverts; [find_opt] against a
   [Hashtbl], for present strings and for absent ones below, between and
   above them; [ranks] and [count_below] against a sorted list. *)
let dict_matches_references =
  Support.qcheck_case ~count:200 ~name:"dict codes, find_opt, ranks = references" dict_cells
    (fun cells ->
      let d, codes = Storage.Dict.encode cells in
      let reference = Hashtbl.create 16 in
      Array.iter
        (function
          | Some s when not (Hashtbl.mem reference s) -> Hashtbl.add reference s (Hashtbl.length reference)
          | _ -> ())
        cells;
      let sorted = List.sort String.compare (Hashtbl.fold (fun s _ acc -> s :: acc) reference []) in
      let present = List.map fst (Hashtbl.fold (fun s c acc -> (s, c) :: acc) reference []) in
      let probes =
        ("" :: String.make 9 '\xff' :: present)
        @ List.concat_map
            (fun s ->
              let n = String.length s in
              (s ^ "\x00") :: (s ^ "a") :: (if n = 0 then [] else [ String.sub s 0 (n - 1) ]))
            present
      in
      let below s = List.length (List.filter (fun e -> String.compare e s < 0) sorted) in
      let ranks = Storage.Dict.ranks d in
      Array.for_all2
        (fun cell code ->
          match cell with
          | None -> code = Storage.Value.null_code
          | Some s -> code = Hashtbl.find reference s && Storage.Dict.get d code = s)
        cells codes
      && Storage.Dict.size d = Hashtbl.length reference
      && List.for_all
           (fun s -> Storage.Dict.find_opt d s = Hashtbl.find_opt reference s)
           probes
      && List.for_all (fun s -> Storage.Dict.count_below d s = below s) probes
      && List.for_all (fun s -> ranks.(Hashtbl.find reference s) = below s) present)

let test_dict_empty () =
  List.iter
    (fun cells ->
      let d, _ = Storage.Dict.encode cells in
      check Alcotest.int "size" 0 (Storage.Dict.size d);
      check Alcotest.(option int) "find" None (Storage.Dict.find_opt d "");
      check Alcotest.int "count_below" 0 (Storage.Dict.count_below d "a");
      check Alcotest.(array int) "ranks" [||] (Storage.Dict.ranks d))
    [ [||]; [| None; None |] ]

(* --- Column -------------------------------------------------------------- *)

let test_column_ints () =
  let c = Storage.Column.of_ints ~name:"x" [| Some 5; None; Some 7 |] in
  check Alcotest.int "length" 3 (Storage.Column.length c);
  Alcotest.(check bool) "null" true (Storage.Column.is_null c 1);
  (match Storage.Column.value c 0 with
  | Storage.Value.Int 5 -> ()
  | v -> Alcotest.failf "unexpected %s" (Storage.Value.to_string v));
  (match Storage.Column.value c 1 with
  | Storage.Value.Null -> ()
  | v -> Alcotest.failf "expected NULL, got %s" (Storage.Value.to_string v));
  check Alcotest.int "distinct" 2 (Storage.Column.distinct_count c)

let test_column_strings () =
  let c = Storage.Column.of_strings ~name:"s" [| Some "a"; Some "b"; Some "a"; None |] in
  check Alcotest.int "distinct" 2 (Storage.Column.distinct_count c);
  (match Storage.Column.value c 2 with
  | Storage.Value.Str "a" -> ()
  | v -> Alcotest.failf "unexpected %s" (Storage.Value.to_string v));
  check Alcotest.(option int) "encode present"
    (Storage.Column.encode c (Storage.Value.Str "b"))
    (Storage.Column.encode c (Storage.Value.Str "b"));
  check Alcotest.(option int) "encode absent" None
    (Storage.Column.encode c (Storage.Value.Str "zzz"));
  check
    Alcotest.(option int)
    "encode null" (Some Storage.Value.null_code)
    (Storage.Column.encode c Storage.Value.Null)

let test_column_encode_mismatch () =
  let c = Storage.Column.of_ints ~name:"x" [| Some 1 |] in
  Alcotest.check_raises "type mismatch"
    (Invalid_argument "Column.encode: type mismatch on column x") (fun () ->
      ignore (Storage.Column.encode c (Storage.Value.Str "a")))

(* --- Table ---------------------------------------------------------------- *)

let mk_table () =
  Storage.Table.create ~name:"demo" ~pk:"id" ~fks:[ "other_id" ]
    [|
      Storage.Column.of_ints ~name:"id" [| Some 1; Some 2; Some 3 |];
      Storage.Column.of_ints ~name:"other_id" [| Some 9; None; Some 9 |];
      Storage.Column.of_strings ~name:"label" [| Some "x"; Some "y"; Some "x" |];
    |]

let test_table_basics () =
  let t = mk_table () in
  check Alcotest.string "name" "demo" (Storage.Table.name t);
  check Alcotest.int "rows" 3 (Storage.Table.row_count t);
  check Alcotest.int "cols" 3 (Storage.Table.column_count t);
  check Alcotest.int "col idx" 1 (Storage.Table.column_index t "other_id");
  check Alcotest.(option int) "pk" (Some 0) (Storage.Table.pk t);
  check Alcotest.(list int) "fks" [ 1 ] (Storage.Table.fks t)

let test_table_validations () =
  let col n = Storage.Column.of_ints ~name:n [| Some 1 |] in
  Alcotest.check_raises "ragged"
    (Invalid_argument "Table.create t: column b has 2 rows, expected 1")
    (fun () ->
      ignore
        (Storage.Table.create ~name:"t"
           [| col "a"; Storage.Column.of_ints ~name:"b" [| Some 1; Some 2 |] |]));
  Alcotest.check_raises "duplicate column"
    (Invalid_argument "Table.create t: duplicate column a") (fun () ->
      ignore (Storage.Table.create ~name:"t" [| col "a"; col "a" |]));
  Alcotest.check_raises "bad pk"
    (Invalid_argument "Table.create t: pk column nope not found") (fun () ->
      ignore (Storage.Table.create ~name:"t" ~pk:"nope" [| col "a" |]));
  Alcotest.check_raises "unknown column"
    (Invalid_argument "Table.column_index: table t has no column zz") (fun () ->
      ignore (Storage.Table.column_index (Storage.Table.create ~name:"t" [| col "a" |]) "zz"))

(* --- Index ------------------------------------------------------------------ *)

(* The rows an index holds for a key, in its own order. *)
let rows_of idx key =
  let slot = Storage.Index.slot idx key in
  if slot < 0 then []
  else
    let first = Storage.Index.first idx slot in
    List.init (Storage.Index.stop idx slot - first) (fun k -> Storage.Index.row idx (first + k))

(* For every key of [codes], each one's neighbours, NULL and the int
   extremes: the index finds exactly the rows holding the key, in
   ascending order, and [count] agrees. *)
let index_law codes idx =
  let null = Storage.Value.null_code in
  let brute key =
    List.filter (fun row -> key <> null && codes.(row) = key) (List.init (Array.length codes) Fun.id)
  in
  let probes =
    [ null; min_int + 1; max_int; 0; 1 ]
    @ List.concat_map (fun k -> [ k - 1; k; k + 1 ]) (Array.to_list codes)
  in
  List.for_all
    (fun key ->
      let found = rows_of idx key in
      found = brute key && Storage.Index.count idx key = List.length found)
    probes

let index_of cells =
  Storage.Index.build
    (Storage.Table.create ~name:"q" [| Storage.Column.of_ints ~name:"k" cells |])
    ~col:0

let test_index_lookup () =
  let t = mk_table () in
  let idx = Storage.Index.build t ~col:1 in
  check Alcotest.(list int) "two matches" [ 0; 2 ] (rows_of idx 9);
  check Alcotest.(list int) "no match" [] (rows_of idx 5);
  check Alcotest.int "count" 2 (Storage.Index.count idx 9)

(* Key columns of every shape an index meets: identities (the generated
   primary keys) from 1, from other bases and up to [max_int], and
   columns that are not one. *)
let index_columns prng =
  let n = 1 + Util.Prng.int prng 60 in
  let ids base = Array.init n (fun r -> Some (base + r)) in
  let permuted =
    let a = ids 1 in
    Util.Prng.shuffle prng a;
    a
  in
  let random f = Array.init n (fun _ -> f ()) in
  [
    ("identity from 1", ids 1);
    ("identity from -7", ids (-7));
    ("identity from 10^12", ids 1_000_000_000_000);
    ("identity up to max_int", ids (max_int - n + 1));
    ("permuted ids", permuted);
    ("ids with a gap", Array.mapi (fun r v -> if r = n - 1 then Some (n + 5) else v) (ids 1));
    ("duplicate keys", random (fun () -> Some (1 + Util.Prng.int prng 5)));
    ("NULLs", random (fun () -> if Util.Prng.chance prng 0.3 then None else Some (Util.Prng.int prng 10)));
    ("NULL before an identity", Array.mapi (fun r v -> if r = 0 then None else v) (ids 1));
    ("negative codes", random (fun () -> Some (Util.Prng.int prng 20 - 15)));
    ( "keys 10^12 apart",
      random (fun () -> Some ((Util.Prng.int prng 7 - 3) * 1_000_000_000_000)) );
    ("empty", [||]);
  ]

let index_matches_scan =
  Support.qcheck_case ~count:50 ~name:"index lookup equals full scan"
    QCheck.small_int (fun seed ->
      List.for_all
        (fun (_, cells) ->
          let codes = Array.map (Option.value ~default:Storage.Value.null_code) cells in
          index_law codes (index_of cells))
        (index_columns (Util.Prng.create seed)))

(* A micro database whose ids are spread a million apart in descending
   row order (foreign keys follow), written to CSV and loaded back. *)
let sparse_csv_db seed =
  let prng = Util.Prng.create seed in
  let db = Support.micro_db prng ~tables:3 ~rows:25 in
  let dir = Filename.temp_file "sparseids" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let loaded = Storage.Database.create () in
  List.iter
    (fun name ->
      let t = Storage.Database.find_table db name in
      let spread column =
        let name = Storage.Column.name column in
        if name = "v" then column
        else
          Storage.Column.of_ints ~name
            (Array.map
               (fun code ->
                 if code = Storage.Value.null_code then None else Some (1_000_000 * (26 - code)))
               (Storage.Column.to_codes column))
      in
      let col_name c = Storage.Column.name (Storage.Table.column t c) in
      let fks = List.map col_name (Storage.Table.fks t) in
      let path = Filename.concat dir (name ^ ".csv") in
      Storage.Csv.export
        (Storage.Table.create ~name ~pk:"id" ~fks (Array.map spread (Storage.Table.columns t)))
        ~path;
      Storage.Database.add_table loaded
        (Storage.Csv.import ~name ~pk:"id" ~fks
           ~columns:
             (Array.to_list
                (Array.map
                   (fun c -> { Storage.Csv.name = Storage.Column.name c; ty = Storage.Value.Int_ty })
                   (Storage.Table.columns t)))
           ~path ());
      Sys.remove path)
    (Storage.Database.table_names db);
  Sys.rmdir dir;
  loaded

(* Under PK+FK, every index of the CSV-loaded database matches a brute
   force, and a left-deep chain of index-NL joins counts what a
   brute-force join counts. *)
let test_index_csv_sparse_ids () =
  for seed = 1 to 5 do
    let db = sparse_csv_db seed in
    Storage.Database.set_index_config db Storage.Database.Pk_fk;
    List.iter
      (fun name ->
        let t = Storage.Database.find_table db name in
        List.iter
          (fun col ->
            let codes = Storage.Column.to_codes (Storage.Table.column t col) in
            match Storage.Database.index db ~table:name ~col with
            | Some idx ->
                Alcotest.(check bool) (Printf.sprintf "seed %d: %s.%d" seed name col) true
                  (index_law codes idx)
            | None -> Alcotest.failf "%s.%d: no index under PK+FK" name col)
          (Option.to_list (Storage.Table.pk t) @ Storage.Table.fks t))
      (Storage.Database.table_names db);
    let g = Support.micro_query (Util.Prng.create seed) db ~relations:3 ~extra_edges:1 in
    let plan =
      List.fold_left
        (fun outer r -> Plan.join Plan.Index_nl_join ~outer ~inner:(Plan.scan r))
        (Plan.scan 0) [ 1; 2 ]
    in
    let result =
      Exec.Executor.run ~db ~graph:g ~config:Exec.Engine_config.robust
        ~size_est:(fun _ -> 64.0) plan
    in
    check Alcotest.int (Printf.sprintf "seed %d: index-NL rows" seed)
      (Support.brute_force_count g (Query.Query_graph.full_set g))
      result.Exec.Executor.rows
  done

(* The words a freshly generated database retains with its 21 PK indexes
   built: 62,810 with identity PK indexes and dictionaries without intern
   tables, against 248,729 with a hash table per index and per
   dictionary. Under OCaml 5's GC pacing, retained words set peak RSS. *)
let test_database_retained_words () =
  let db = Support.fresh_imdb ~seed:42 ~scale:0.001 () in
  List.iter
    (fun table ->
      match Storage.Table.pk (Storage.Database.find_table db table) with
      | Some col -> ignore (Storage.Database.index db ~table ~col)
      | None -> ())
    (Storage.Database.table_names db);
  let words = Obj.reachable_words (Obj.repr db) and bound = 64_000 in
  Alcotest.(check bool) (Printf.sprintf "database retains %d words, under %d" words bound) true
    (words < bound)

(* --- Database ------------------------------------------------------------------ *)

let test_database_catalog () =
  let db = Storage.Database.create () in
  let t = mk_table () in
  Storage.Database.add_table db t;
  check Alcotest.string "find" "demo"
    (Storage.Table.name (Storage.Database.find_table db "demo"));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Database.add_table: duplicate table demo") (fun () ->
      Storage.Database.add_table db t);
  Alcotest.check_raises "unknown"
    (Invalid_argument "Database.find_table: unknown table nope") (fun () ->
      ignore (Storage.Database.find_table db "nope"));
  check Alcotest.(list string) "names" [ "demo" ] (Storage.Database.table_names db)

let test_database_index_config () =
  let db = Storage.Database.create () in
  Storage.Database.add_table db (mk_table ());
  let has col =
    Storage.Database.index db ~table:"demo" ~col <> None
  in
  Storage.Database.set_index_config db Storage.Database.No_indexes;
  Alcotest.(check bool) "none: no pk" false (has 0);
  Storage.Database.set_index_config db Storage.Database.Pk_only;
  Alcotest.(check bool) "pk: pk yes" true (has 0);
  Alcotest.(check bool) "pk: fk no" false (has 1);
  Storage.Database.set_index_config db Storage.Database.Pk_fk;
  Alcotest.(check bool) "pkfk: fk yes" true (has 1)

let column_value_roundtrip =
  Support.qcheck_case ~name:"column stores and decodes values"
    QCheck.(small_list (option small_int))
    (fun cells ->
      let cells = Array.of_list cells in
      if Array.length cells = 0 then true
      else begin
        let c = Storage.Column.of_ints ~name:"x" cells in
        Array.for_all
          (fun i ->
            match (cells.(i), Storage.Column.value c i) with
            | None, Storage.Value.Null -> true
            | Some v, Storage.Value.Int w -> v = w
            | _ -> false)
          (Array.init (Array.length cells) (fun i -> i))
      end)


(* --- Columns against their input ---------------------------------------- *)

module C = Storage.Column

let null = Storage.Value.null_code

(* Codes an int column must hold, worked out from its cells. *)
let int_codes cells = Array.of_list (List.map (Option.value ~default:null) cells)

(* A dictionary codes the distinct strings 0, 1, ... in first-seen
   order. *)
let string_codes cells =
  let seen = Hashtbl.create 16 in
  Array.of_list
    (List.map
       (function
         | None -> null
         | Some s -> (
             match Hashtbl.find_opt seen s with
             | Some c -> c
             | None ->
                 let c = Hashtbl.length seen in
                 Hashtbl.add seen s c;
                 c))
       cells)

(* Every accessor must return [codes], the codes the column was built
   from: [get], [reader], [to_codes], [iter_codes] and chunked
   [decode_into] at awkward boundaries. The cached statistics must equal
   (distinct, nulls, min/max) of [codes], not the column's own
   statistics pass. *)
let column_law codes column =
  let n = Array.length codes in
  let values = List.sort_uniq compare (List.filter (( <> ) null) (Array.to_list codes)) in
  let expect =
    ( List.length values,
      Array.fold_left (fun k c -> if c = null then k + 1 else k) 0 codes,
      match values with [] -> None | lo :: _ -> Some (lo, List.nth values (List.length values - 1)) )
  in
  let indices = Array.init n Fun.id in
  let chunks_ok =
    List.for_all
      (fun step ->
        let buf = Array.make step 0 in
        let ok = ref true and lo = ref 0 in
        while !lo < n do
          let len = min step (n - !lo) in
          C.decode_into column ~row_start:!lo ~len buf;
          for i = 0 to len - 1 do
            if buf.(i) <> codes.(!lo + i) then ok := false
          done;
          lo := !lo + len
        done;
        !ok)
      [ 1; 3; max 1 (n / 3); max 1 n ]
  in
  let iter_ok =
    let got = ref [] in
    C.iter_codes column (fun v -> got := v :: !got);
    Array.of_list (List.rev !got) = codes
  in
  C.length column = n
  && C.to_codes column = codes
  && Array.for_all (fun i -> C.get column i = codes.(i)) indices
  && (let read = C.reader column in
      Array.for_all (fun i -> read i = codes.(i)) indices)
  && chunks_ok && iter_ok
  && (C.distinct_count column, C.null_count column, C.min_max column) = expect

let int_column_of cells = C.of_ints ~name:"x" (Array.of_list cells)

let int_roundtrip cells = column_law (int_codes cells) (int_column_of cells)

(* Full-range ints: almost every list with two values needs more than
   57 bits and takes the flat fallback. *)
let encoding_roundtrip_random =
  Support.qcheck_case ~name:"encodings roundtrip on random int columns"
    QCheck.(small_list (option int))
    int_roundtrip

let encoding_roundtrip_sorted =
  Support.qcheck_case ~name:"encodings roundtrip on sorted columns (bit-packed)"
    QCheck.(small_list (option small_int))
    (fun cells -> int_roundtrip (List.sort compare cells))

let encoding_roundtrip_runs =
  Support.qcheck_case ~name:"encodings roundtrip on run-heavy columns"
    QCheck.(small_list (pair (option (int_bound 5)) (int_bound 6)))
    (fun pairs ->
      let cells = List.concat_map (fun (v, k) -> List.init (k + 1) (fun _ -> v)) pairs in
      int_roundtrip cells)

let encoding_roundtrip_strings =
  Support.qcheck_case ~name:"encodings roundtrip on dictionary columns"
    QCheck.(small_list (option (string_of_size (QCheck.Gen.int_range 0 6))))
    (fun cells ->
      let column = C.of_strings ~name:"s" (Array.of_list cells) in
      column_law (string_codes cells) column
      && List.for_all2
           (fun cell i ->
             match (cell, C.value column i) with
             | None, Storage.Value.Null -> true
             | Some s, Storage.Value.Str v -> String.equal s v
             | _ -> false)
           cells
           (List.init (C.length column) Fun.id))

(* Constant, all-NULL and empty columns, at sizes on both sides of a
   byte and of a 4096-row chunk. *)
let test_column_edge_shapes () =
  List.iter
    (fun n ->
      List.iter
        (fun (what, cells) ->
          if not (int_roundtrip cells) then Alcotest.failf "%s, %d rows" what n;
          let strings = List.map (Option.map string_of_int) cells in
          if not (column_law (string_codes strings) (C.of_strings ~name:"s" (Array.of_list strings)))
          then Alcotest.failf "%s strings, %d rows" what n)
        [
          ("constant", List.init n (fun _ -> Some 7));
          ("constant negative", List.init n (fun _ -> Some (-3)));
          ("all-NULL", List.init n (fun _ -> None));
        ])
    [ 0; 1; 7; 9; 4095; 4097 ];
  Alcotest.(check bool) "empty of_codes" true
    (column_law [||] (C.of_codes ~name:"e" ~ty:Storage.Value.Int_ty [||]))

(* Narrow columns pack; only a range wider than 57 bits keeps a word
   per row. *)
let test_column_layout () =
  let ids = C.of_ints ~name:"id" (Array.init 20_000 (fun i -> Some (i + 1))) in
  Alcotest.(check bool) "ids pack >= 4x" true (C.byte_size ids * 4 <= C.flat_byte_size ids);
  check Alcotest.int "ids decode intact" 12_345 (C.get ids 12_344);
  let strs =
    C.of_strings ~name:"kind"
      (Array.init 8_192 (fun i ->
           if i mod 97 = 0 then None
           else Some [| "movie"; "tv"; "video" |].(i mod 3)))
  in
  Alcotest.(check bool) "dictionary column >= 8x" true
    (8 * C.byte_size strs <= C.flat_byte_size strs);
  Alcotest.(check bool) "null preserved in-band" true (C.is_null strs 0);
  let nulls = C.of_strings ~name:"n" (Array.make 4_096 None) in
  Alcotest.(check bool) "all-null packs to a bit per row" true
    (C.byte_size nulls * 32 <= C.flat_byte_size nulls);
  let span57 =
    C.of_ints ~name:"w" (Array.init 64 (fun i -> if i mod 2 = 0 then Some 0 else Some ((1 lsl 57) - 2)))
  in
  Alcotest.(check bool) "a 57-bit range packs" true
    (C.byte_size span57 < C.flat_byte_size span57);
  List.iter
    (fun (what, cells) ->
      let c = int_column_of cells in
      check Alcotest.int (what ^ " stays flat") (C.flat_byte_size c) (C.byte_size c);
      Alcotest.(check bool) (what ^ " roundtrip") true (int_roundtrip cells))
    [
      ("a 58-bit range", [ Some 0; Some ((1 lsl 57) - 1); None ]);
      ("min_int + 1 to max_int", [ Some max_int; None; Some (min_int + 1) ]);
      ("a range past max_int", [ Some (-2); Some max_int ]);
    ]

let test_encoding_stats_cached () =
  let c = C.of_ints ~name:"x" [| Some 5; None; Some 7; Some 5; Some (-3) |] in
  check Alcotest.int "distinct" 3 (C.distinct_count c);
  check Alcotest.int "nulls" 1 (C.null_count c);
  check Alcotest.(option (pair int int)) "min/max" (Some (-3, 7)) (C.min_max c)

(* The distinct count on either side of the bitmap's range bound, and on
   a range whose width overflows an int. *)
let test_distinct_count_bound () =
  List.iter
    (fun (what, cells, dense) ->
      let c = int_column_of cells in
      let lo, hi = Option.get (C.min_max c) in
      Alcotest.(check bool) (what ^ ": bitmap") dense (C.dense_span ~n:(C.length c) lo hi <> None);
      Alcotest.(check bool) (what ^ ": statistics = cells") true (int_roundtrip cells))
    [
      ("at the bound", [ Some (-7); Some (65536 - 8); None; Some (-7) ], true);
      ("past the bound", [ Some (-7); Some (65536 - 7); None; Some (65536 - 7) ], false);
      ("overflowing range", [ Some max_int; Some (min_int + 1); None; Some max_int ], false);
    ]

let test_take_shares_dict () =
  let c = C.of_strings ~name:"s" [| Some "a"; Some "b"; None; Some "a" |] in
  let t = C.take c [| 3; 2; 1 |] in
  check Alcotest.int "take length" 3 (C.length t);
  Alcotest.(check bool) "same dict instance" true
    (match (C.dict c, C.dict t) with Some a, Some b -> a == b | _ -> false);
  (match C.value t 0 with
  | Storage.Value.Str "a" -> ()
  | v -> Alcotest.failf "unexpected %s" (Storage.Value.to_string v));
  Alcotest.(check bool) "take null" true (C.is_null t 1);
  (match C.value t 2 with
  | Storage.Value.Str "b" -> ()
  | v -> Alcotest.failf "unexpected %s" (Storage.Value.to_string v))

let suite =
  [
    Alcotest.test_case "dict roundtrip" `Quick test_dict_roundtrip;
    dict_intern_roundtrip;
    column_value_roundtrip;
    Alcotest.test_case "dict invalid code" `Quick test_dict_get_invalid;
    Alcotest.test_case "dict matching codes" `Quick test_dict_matching_codes;
    Alcotest.test_case "dict growth" `Quick test_dict_growth;
    dict_matches_references;
    Alcotest.test_case "dict empty" `Quick test_dict_empty;
    Alcotest.test_case "column ints" `Quick test_column_ints;
    Alcotest.test_case "column strings" `Quick test_column_strings;
    Alcotest.test_case "column encode mismatch" `Quick test_column_encode_mismatch;
    Alcotest.test_case "table basics" `Quick test_table_basics;
    Alcotest.test_case "table validations" `Quick test_table_validations;
    Alcotest.test_case "index lookup" `Quick test_index_lookup;
    index_matches_scan;
    Alcotest.test_case "index on CSV-loaded sparse ids under PK+FK" `Quick
      test_index_csv_sparse_ids;
    Alcotest.test_case "database retained words with PK indexes" `Quick
      test_database_retained_words;
    Alcotest.test_case "database catalog" `Quick test_database_catalog;
    Alcotest.test_case "database index config" `Quick test_database_index_config;
    encoding_roundtrip_random;
    encoding_roundtrip_sorted;
    encoding_roundtrip_runs;
    encoding_roundtrip_strings;
    Alcotest.test_case "column edge shapes: constant, all-NULL, empty" `Quick
      test_column_edge_shapes;
    Alcotest.test_case "column layout: bit-packed, or flat" `Quick test_column_layout;
    Alcotest.test_case "encoding stats cached" `Quick test_encoding_stats_cached;
    Alcotest.test_case "distinct count around the bitmap bound" `Quick test_distinct_count_bound;
    Alcotest.test_case "take shares dict" `Quick test_take_shares_dict;
  ]
