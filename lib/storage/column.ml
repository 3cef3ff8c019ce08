(* Widths above this cannot guarantee the read-modify-write packing trick
   (a 64-bit load at any bit offset spans the whole field: width + 7 <= 64). *)
let max_width = 57

(* Stored value [code - base + 1], 0 for NULL, in [width] bits per row;
   a flat array only for a range that needs more than [max_width]. *)
type repr =
  | Flat_r of int array
  | Pack_r of { bytes : Bytes.t; width : int; base : int }

type t = {
  name : string;
  ty : Value.ty;
  dict : Dict.t option;
  length : int;
  repr : repr;
  distinct : int;
  nulls : int;
  lo_hi : (int * int) option; (* min/max non-NULL code *)
}

(* ---------- bit packing ---------- *)

let packed_bytes n width = ((n * width + 7) / 8) + 8

let pack ~width ~f n =
  let b = Bytes.make (packed_bytes n width) '\000' in
  for i = 0 to n - 1 do
    let bit = i * width in
    let byte = bit lsr 3 and shift = bit land 7 in
    let cur = Bytes.get_int64_le b byte in
    Bytes.set_int64_le b byte
      (Int64.logor cur (Int64.shift_left (Int64.of_int (f i)) shift))
  done;
  b

let unpack bytes width mask i =
  let bit = i * width in
  Int64.to_int
    (Int64.logand
       (Int64.shift_right_logical (Bytes.get_int64_le bytes (bit lsr 3))
          (bit land 7))
       mask)

let mask_of width = Int64.of_int ((1 lsl width) - 1)

(* Bits needed for stored values in [0, k], k >= 1. *)
let bits_needed k =
  let rec go acc v = if v = 0 then acc else go (acc + 1) (v lsr 1) in
  go 0 k

(* [hi - lo + 1] would not fit in [max_width] bits (or overflows int). *)
let range_too_wide lo hi =
  let limit = (1 lsl max_width) - 2 in
  if lo >= 0 || hi <= 0 then hi - lo > limit
  else hi - lo < 0 || hi - lo > limit

(* ---------- construction ---------- *)

type stats = {
  s_nulls : int;
  s_distinct : int;
  s_lo_hi : (int * int) option;
}

(* The direct-addressing bound shared by the dense kernels: at most
   [max 65536 (4 * n)] slots for [n] input codes. [hi - lo] wraps
   negative exactly when the true range exceeds [max_int]. *)
let dense_span ~n lo hi =
  let d = hi - lo in
  if d < 0 || d >= max 65536 (4 * n) then None else Some (d + 1)

(* Exact number of distinct non-NULL codes: a bitmap over [lo, hi] when
   [dense_span] allows one, a hash set otherwise. *)
let count_distinct codes lo_hi =
  let n = Array.length codes in
  match lo_hi with
  | None -> 0
  | Some (lo, hi) -> (
      match dense_span ~n lo hi with
      | Some span ->
          let seen = Bytes.make ((span + 7) lsr 3) '\000' in
          let distinct = ref 0 in
          for i = 0 to n - 1 do
            let c = Array.unsafe_get codes i in
            if c <> Value.null_code then begin
              let k = c - lo in
              let byte = Char.code (Bytes.get seen (k lsr 3)) in
              let bit = 1 lsl (k land 7) in
              if byte land bit = 0 then begin
                Bytes.set seen (k lsr 3) (Char.unsafe_chr (byte lor bit));
                incr distinct
              end
            end
          done;
          !distinct
      | None ->
          let seen = Hashtbl.create 256 in
          Array.iter (fun c -> if c <> Value.null_code then Hashtbl.replace seen c ()) codes;
          Hashtbl.length seen)

let scan_stats codes =
  let nulls = ref 0 in
  let found = ref false in
  let lo = ref 0 and hi = ref 0 in
  for i = 0 to Array.length codes - 1 do
    let c = Array.unsafe_get codes i in
    if c = Value.null_code then incr nulls
    else if not !found then begin
      found := true;
      lo := c;
      hi := c
    end
    else begin
      if c < !lo then lo := c;
      if c > !hi then hi := c
    end
  done;
  let lo_hi = if !found then Some (!lo, !hi) else None in
  { s_nulls = !nulls; s_distinct = count_distinct codes lo_hi; s_lo_hi = lo_hi }

let build_pack codes ~base ~width =
  let n = Array.length codes in
  let f i =
    let c = Array.unsafe_get codes i in
    if c = Value.null_code then 0 else c - base + 1
  in
  Pack_r { bytes = pack ~width ~f n; width; base }

(* Width is range + 1 for the in-band NULL zero; an all-NULL column
   stores only zeros. *)
let build_repr codes = function
  | None -> build_pack codes ~base:0 ~width:1
  | Some (lo, hi) when range_too_wide lo hi -> Flat_r codes
  | Some (lo, hi) -> build_pack codes ~base:lo ~width:(bits_needed (hi - lo + 1))

(* [codes] must be freshly allocated: Flat_r takes ownership. *)
let make ~name ~ty ~dict codes =
  let stats = scan_stats codes in
  {
    name;
    ty;
    dict;
    length = Array.length codes;
    repr = build_repr codes stats.s_lo_hi;
    distinct = stats.s_distinct;
    nulls = stats.s_nulls;
    lo_hi = stats.s_lo_hi;
  }

let of_ints ~name values =
  let codes =
    Array.map (function Some v -> v | None -> Value.null_code) values
  in
  make ~name ~ty:Value.Int_ty ~dict:None codes

let of_strings ~name values =
  let dict, codes = Dict.encode values in
  make ~name ~ty:Value.Str_ty ~dict:(Some dict) codes

let of_codes ~name ~ty ?dict codes =
  (match (ty, dict) with
  | Value.Str_ty, None ->
      invalid_arg
        (Printf.sprintf "Column.of_codes: string column %s needs a dictionary"
           name)
  | _ -> ());
  make ~name ~ty ~dict (Array.copy codes)

(* ---------- shape ---------- *)

let name t = t.name
let ty t = t.ty
let dict t = t.dict
let length t = t.length

(* ---------- row access ---------- *)

let get_unchecked t row =
  match t.repr with
  | Flat_r a -> Array.unsafe_get a row
  | Pack_r { bytes; width; base } ->
      let s = unpack bytes width (mask_of width) row in
      if s = 0 then Value.null_code else base + s - 1

let get t row =
  if row < 0 || row >= t.length then
    invalid_arg
      (Printf.sprintf "Column.get: row %d out of bounds on %s (%d rows)" row
         t.name t.length);
  get_unchecked t row

let reader t =
  match t.repr with
  | Flat_r a -> fun row -> Array.unsafe_get a row
  | Pack_r { bytes; width; base } ->
      let mask = mask_of width in
      fun row ->
        let s = unpack bytes width mask row in
        if s = 0 then Value.null_code else base + s - 1

let decode_into t ~row_start ~len buf =
  if row_start < 0 || len < 0 || row_start + len > t.length then
    invalid_arg
      (Printf.sprintf "Column.decode_into: [%d, %d) out of bounds on %s"
         row_start (row_start + len) t.name);
  if len > Array.length buf then
    invalid_arg "Column.decode_into: buffer too small";
  match t.repr with
  | Flat_r a -> Array.blit a row_start buf 0 len
  | Pack_r { bytes; width; base } ->
      let mask = mask_of width in
      for i = 0 to len - 1 do
        let s = unpack bytes width mask (row_start + i) in
        Array.unsafe_set buf i
          (if s = 0 then Value.null_code else base + s - 1)
      done

let iter_codes t f =
  match t.repr with
  | Flat_r a -> Array.iter f a
  | Pack_r _ ->
      for row = 0 to t.length - 1 do
        f (get_unchecked t row)
      done

let to_codes t =
  let buf = Array.make t.length 0 in
  decode_into t ~row_start:0 ~len:t.length buf;
  buf

let value t row =
  let code = get t row in
  if code = Value.null_code then Value.Null
  else
    match t.dict with
    | None -> Value.Int code
    | Some dict -> Value.Str (Dict.get dict code)

let is_null t row = get t row = Value.null_code

(* ---------- cached statistics ---------- *)

let distinct_count t = t.distinct
let null_count t = t.nulls
let min_max t = t.lo_hi

(* ---------- value/code conversions ---------- *)

let encode t v =
  match (v, t.dict) with
  | Value.Null, _ -> Some Value.null_code
  | Value.Int i, None -> Some i
  | Value.Str s, Some dict -> Dict.find_opt dict s
  | Value.Int _, Some _ | Value.Str _, None ->
      invalid_arg
        (Printf.sprintf "Column.encode: type mismatch on column %s" t.name)

let code_value t code =
  if code = Value.null_code then Value.Null
  else
    match t.dict with
    | None -> Value.Int code
    | Some dict -> Value.Str (Dict.get dict code)

(* ---------- derived constructors ---------- *)

let take t rows =
  let codes = Array.map (fun row -> get t row) rows in
  make ~name:t.name ~ty:t.ty ~dict:t.dict codes

(* ---------- storage accounting ---------- *)

let byte_size t =
  match t.repr with
  | Flat_r a -> 8 * Array.length a
  | Pack_r { bytes; _ } -> Bytes.length bytes

let flat_byte_size t = 8 * t.length
