(* Tests for the storage library: dictionaries, columns, tables, hash
   indexes, and the catalog with its physical-design switching. *)

let check = Alcotest.check

(* --- Dict --------------------------------------------------------------- *)

let test_dict_roundtrip () =
  let d = Storage.Dict.create () in
  let a = Storage.Dict.intern d "alpha" in
  let b = Storage.Dict.intern d "beta" in
  let a' = Storage.Dict.intern d "alpha" in
  check Alcotest.int "stable code" a a';
  Alcotest.(check bool) "codes differ" true (a <> b);
  check Alcotest.string "decode" "beta" (Storage.Dict.get d b);
  check Alcotest.int "size" 2 (Storage.Dict.size d);
  check Alcotest.(option int) "find" (Some a) (Storage.Dict.find_opt d "alpha");
  check Alcotest.(option int) "find missing" None (Storage.Dict.find_opt d "gamma")

let test_dict_get_invalid () =
  let d = Storage.Dict.create () in
  Alcotest.check_raises "unknown code" (Invalid_argument "Dict.get: unknown code")
    (fun () -> ignore (Storage.Dict.get d 3))

let test_dict_matching_codes () =
  let d = Storage.Dict.create () in
  List.iter (fun s -> ignore (Storage.Dict.intern d s)) [ "cat"; "car"; "dog" ];
  let bitmap = Storage.Dict.matching_codes d (fun s -> s.[0] = 'c') in
  check Alcotest.(array bool) "c-prefixed" [| true; true; false |] bitmap

let test_dict_growth () =
  let d = Storage.Dict.create () in
  for i = 0 to 999 do
    ignore (Storage.Dict.intern d (string_of_int i))
  done;
  check Alcotest.int "1000 distinct" 1000 (Storage.Dict.size d);
  check Alcotest.string "decode mid" "517" (Storage.Dict.get d 517)

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

let test_index_lookup () =
  let t = mk_table () in
  let idx = Storage.Index.build t ~col:1 in
  check Alcotest.(array int) "two matches" [| 0; 2 |]
    (let a = Array.copy (Storage.Index.lookup idx 9) in
     Array.sort compare a;
     a);
  check Alcotest.(array int) "no match" [||] (Storage.Index.lookup idx 5);
  check Alcotest.int "count" 2 (Storage.Index.count idx 9);
  check Alcotest.int "distinct keys (nulls excluded)" 1 (Storage.Index.distinct_keys idx)

let index_matches_scan =
  Support.qcheck_case ~name:"index lookup equals full scan" QCheck.small_int
    (fun seed ->
      let prng = Util.Prng.create seed in
      let data =
        Array.init 200 (fun _ ->
            if Util.Prng.chance prng 0.1 then None
            else Some (Util.Prng.int prng 20))
      in
      let t =
        Storage.Table.create ~name:"q"
          [| Storage.Column.of_ints ~name:"k" data |]
      in
      let idx = Storage.Index.build t ~col:0 in
      List.for_all
        (fun key ->
          let via_index = List.sort compare (Array.to_list (Storage.Index.lookup idx key)) in
          let via_scan =
            Array.to_list data
            |> List.mapi (fun i v -> (i, v))
            |> List.filter_map (fun (i, v) -> if v = Some key then Some i else None)
          in
          via_index = via_scan)
        [ 0; 1; 5; 19 ])

let test_index_average_fanout () =
  let t =
    Storage.Table.create ~name:"f"
      [| Storage.Column.of_ints ~name:"k" [| Some 1; Some 1; Some 2; None |] |]
  in
  let idx = Storage.Index.build t ~col:0 in
  Alcotest.check (Alcotest.float 1e-9) "fanout" 1.5 (Storage.Index.average_fanout idx)

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

let dict_intern_roundtrip =
  Support.qcheck_case ~name:"dict intern/get roundtrip"
    QCheck.(small_list (string_of_size (QCheck.Gen.int_range 0 12)))
    (fun strings ->
      let d = Storage.Dict.create () in
      let codes = List.map (Storage.Dict.intern d) strings in
      List.for_all2 (fun s c -> Storage.Dict.get d c = s) strings codes
      && Storage.Dict.size d = List.length (List.sort_uniq compare strings))

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
    Alcotest.test_case "column ints" `Quick test_column_ints;
    Alcotest.test_case "column strings" `Quick test_column_strings;
    Alcotest.test_case "column encode mismatch" `Quick test_column_encode_mismatch;
    Alcotest.test_case "table basics" `Quick test_table_basics;
    Alcotest.test_case "table validations" `Quick test_table_validations;
    Alcotest.test_case "index lookup" `Quick test_index_lookup;
    index_matches_scan;
    Alcotest.test_case "index fanout" `Quick test_index_average_fanout;
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
