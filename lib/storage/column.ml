type encoding = Flat | Bitpack | Frame | Rle

let all_encodings = [ Flat; Bitpack; Frame; Rle ]

let encoding_name = function
  | Flat -> "flat"
  | Bitpack -> "bitpack"
  | Frame -> "frame"
  | Rle -> "rle"

let encoding_of_name = function
  | "flat" -> Some Flat
  | "bitpack" -> Some Bitpack
  | "frame" -> Some Frame
  | "rle" -> Some Rle
  | _ -> None

(* Frame-of-reference block size; must match the executor's scan chunk so a
   chunk decode touches at most two blocks. [lsr 12]/[land 4095] below
   depend on this value. *)
let block = 4096

(* Widths above this cannot guarantee the read-modify-write packing trick
   (a 64-bit load at any bit offset spans the whole field: width + 7 <= 64). *)
let max_width = 57

type repr =
  | Flat_r of int array
  | Pack_r of { bytes : Bytes.t; width : int; base : int }
  | Frame_r of { bytes : Bytes.t; width : int; bases : int array }
  | Rle_r of { values : int array; ends : int array }
      (* ends.(i) = exclusive end row of run i; ends.(last) = length *)

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
  s_runs : int;
  s_bases : int array; (* per-block min non-NULL code (0 for all-NULL blocks) *)
  s_max_delta : int option; (* max per-block (max - min); None if too wide *)
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
  let n = Array.length codes in
  let nulls = ref 0 in
  let found = ref false in
  let lo = ref 0 and hi = ref 0 in
  let runs = ref (if n = 0 then 0 else 1) in
  for i = 0 to n - 1 do
    let c = Array.unsafe_get codes i in
    if c = Value.null_code then incr nulls
    else begin
      if not !found then begin
        found := true;
        lo := c;
        hi := c
      end
      else begin
        if c < !lo then lo := c;
        if c > !hi then hi := c
      end
    end;
    if i > 0 && c <> Array.unsafe_get codes (i - 1) then incr runs
  done;
  let lo_hi = if !found then Some (!lo, !hi) else None in
  let too_wide = match lo_hi with Some (l, h) -> range_too_wide l h | None -> false in
  let nblocks = (n + block - 1) / block in
  let bases = Array.make (max nblocks 1) 0 in
  let max_delta = ref 0 in
  if not too_wide then
    for b = 0 to nblocks - 1 do
      let blo = ref 0 and bhi = ref 0 and bfound = ref false in
      let stop = min n ((b * block) + block) - 1 in
      for i = b * block to stop do
        let c = Array.unsafe_get codes i in
        if c <> Value.null_code then
          if not !bfound then begin
            bfound := true;
            blo := c;
            bhi := c
          end
          else begin
            if c < !blo then blo := c;
            if c > !bhi then bhi := c
          end
      done;
      if !bfound then begin
        bases.(b) <- !blo;
        if !bhi - !blo > !max_delta then max_delta := !bhi - !blo
      end
    done;
  {
    s_nulls = !nulls;
    s_distinct = count_distinct codes lo_hi;
    s_lo_hi = lo_hi;
    s_runs = !runs;
    s_bases = (if nblocks = 0 then [||] else Array.sub bases 0 nblocks);
    s_max_delta = (if too_wide then None else Some !max_delta);
  }

let build_pack codes ~base ~width =
  let n = Array.length codes in
  let f i =
    let c = Array.unsafe_get codes i in
    if c = Value.null_code then 0 else c - base + 1
  in
  Pack_r { bytes = pack ~width ~f n; width; base }

let build_frame codes ~bases ~width =
  let n = Array.length codes in
  let f i =
    let c = Array.unsafe_get codes i in
    if c = Value.null_code then 0 else c - bases.(i / block) + 1
  in
  Frame_r { bytes = pack ~width ~f n; width; bases }

let build_rle codes ~runs =
  let values = Array.make runs 0 and ends = Array.make runs 0 in
  let r = ref (-1) in
  Array.iteri
    (fun i c ->
      if !r < 0 || c <> values.(!r) then begin
        incr r;
        values.(!r) <- c
      end;
      ends.(!r) <- i + 1)
    codes;
  Rle_r { values; ends }

(* Width of stored values under global bit-packing: range + 1 for the
   in-band NULL zero. Returns None when the range cannot be packed. *)
let pack_width stats =
  match (stats.s_lo_hi, stats.s_max_delta) with
  | None, _ -> Some 1 (* all NULL: every stored value is 0 *)
  | Some _, None -> None
  | Some (lo, hi), Some _ -> Some (bits_needed (hi - lo + 1))

let frame_width stats =
  match stats.s_max_delta with
  | None -> None
  | Some d -> Some (bits_needed (d + 1))

(* Pick the smallest estimated payload. RLE additionally requires an
   average run length of >= 4 so random access (binary search over run
   ends) stays off genuinely unclustered columns. *)
(* The chooser minimizes bytes, but not blindly: bitpack's random
   access is within ~10% of a flat array read, while frame pays an
   extra per-block base lookup and RLE a binary search — so frame and
   RLE must beat the cheaper encoding by a real margin (25% for frame,
   4x for RLE) before the chooser trades access speed for bytes.
   Without the margin the chooser picks frame for sorted FK join
   columns that bitpack compresses almost as well, and every probe in
   a join-heavy query pays for a handful of saved kilobytes. *)
let choose n stats =
  if n = 0 then Flat
  else begin
    let best = ref Flat and best_bytes = ref (n * 8) in
    let consider ?(margin = 1.0) enc bytes =
      if float_of_int bytes *. margin < float_of_int !best_bytes then begin
        best := enc;
        best_bytes := bytes
      end
    in
    (match pack_width stats with
    | Some w when w <= max_width -> consider Bitpack (packed_bytes n w)
    | _ -> ());
    (match frame_width stats with
    | Some w when w <= max_width ->
        consider ~margin:(4.0 /. 3.0) Frame
          (packed_bytes n w + (8 * Array.length stats.s_bases))
    | _ -> ());
    if stats.s_runs * 4 <= n then consider ~margin:4.0 Rle (stats.s_runs * 16);
    !best
  end

let build_repr codes stats = function
  | Flat -> Flat_r codes
  | Bitpack -> (
      match pack_width stats with
      | Some w when w <= max_width ->
          let base = match stats.s_lo_hi with Some (lo, _) -> lo | None -> 0 in
          build_pack codes ~base ~width:w
      | _ -> Flat_r codes)
  | Frame -> (
      match frame_width stats with
      | Some w when w <= max_width ->
          build_frame codes ~bases:stats.s_bases ~width:w
      | _ -> Flat_r codes)
  | Rle ->
      if Array.length codes = 0 then Flat_r codes
      else build_rle codes ~runs:stats.s_runs

(* [codes] must be freshly allocated: Flat_r takes ownership. *)
let make ~name ~ty ~dict ?force codes =
  let n = Array.length codes in
  let stats = scan_stats codes in
  let enc = match force with Some e -> e | None -> choose n stats in
  {
    name;
    ty;
    dict;
    length = n;
    repr = build_repr codes stats enc;
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
  let dict = Dict.create () in
  let codes =
    Array.map
      (function Some s -> Dict.intern dict s | None -> Value.null_code)
      values
  in
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

let encoding t =
  match t.repr with
  | Flat_r _ -> Flat
  | Pack_r _ -> Bitpack
  | Frame_r _ -> Frame
  | Rle_r _ -> Rle

(* ---------- row access ---------- *)

(* First run covering [row]: smallest i with ends.(i) > row. *)
let rle_find ends row =
  let lo = ref 0 and hi = ref (Array.length ends - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get ends mid > row then hi := mid else lo := mid + 1
  done;
  !lo

let get_unchecked t row =
  match t.repr with
  | Flat_r a -> Array.unsafe_get a row
  | Pack_r { bytes; width; base } ->
      let s = unpack bytes width (mask_of width) row in
      if s = 0 then Value.null_code else base + s - 1
  | Frame_r { bytes; width; bases } ->
      let s = unpack bytes width (mask_of width) row in
      if s = 0 then Value.null_code
      else Array.unsafe_get bases (row / block) + s - 1
  | Rle_r { values; ends } -> Array.unsafe_get values (rle_find ends row)

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
  | Frame_r { bytes; width; bases } ->
      let mask = mask_of width in
      fun row ->
        let s = unpack bytes width mask row in
        if s = 0 then Value.null_code
        else Array.unsafe_get bases (row / block) + s - 1
  | Rle_r { values; ends } ->
      (* Executor hot loops walk rows mostly in order, so each reader
         closure caches its last run and tries it (then its successor)
         before falling back to the binary search: O(1) amortized on
         sequential scans, O(log runs) on genuinely random probes. The
         cache affects only speed, never the value returned. *)
      let last = ref 0 in
      let nruns = Array.length ends in
      fun row ->
        let r = !last in
        let lo = if r = 0 then 0 else Array.unsafe_get ends (r - 1) in
        if row >= lo then
          if row < Array.unsafe_get ends r then Array.unsafe_get values r
          else if
            r + 1 < nruns
            && row >= Array.unsafe_get ends r
            && row < Array.unsafe_get ends (r + 1)
          then begin
            last := r + 1;
            Array.unsafe_get values (r + 1)
          end
          else begin
            let r = rle_find ends row in
            last := r;
            Array.unsafe_get values r
          end
        else begin
          let r = rle_find ends row in
          last := r;
          Array.unsafe_get values r
        end

let flat_view t = match t.repr with Flat_r a -> Some a | _ -> None

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
  | Frame_r { bytes; width; bases } ->
      let mask = mask_of width in
      for i = 0 to len - 1 do
        let row = row_start + i in
        let s = unpack bytes width mask row in
        Array.unsafe_set buf i
          (if s = 0 then Value.null_code
           else Array.unsafe_get bases (row / block) + s - 1)
      done
  | Rle_r { values; ends } ->
      if len > 0 then begin
        let r = ref (rle_find ends row_start) in
        for i = 0 to len - 1 do
          let row = row_start + i in
          if row >= Array.unsafe_get ends !r then incr r;
          Array.unsafe_set buf i (Array.unsafe_get values !r)
        done
      end

let iter_codes t f =
  match t.repr with
  | Flat_r a -> Array.iter f a
  | Pack_r _ | Frame_r _ ->
      for row = 0 to t.length - 1 do
        f (get_unchecked t row)
      done
  | Rle_r { values; ends } ->
      let start = ref 0 in
      Array.iteri
        (fun r stop ->
          let v = Array.unsafe_get values r in
          for _ = !start to stop - 1 do
            f v
          done;
          start := stop)
        ends

let to_codes t =
  match t.repr with
  | Flat_r a -> Array.copy a
  | _ ->
      let buf = Array.make (max t.length 1) 0 in
      decode_into t ~row_start:0 ~len:t.length buf;
      if t.length = Array.length buf then buf else Array.sub buf 0 t.length

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

let recode t enc = make ~name:t.name ~ty:t.ty ~dict:t.dict ~force:enc (to_codes t)

(* ---------- storage accounting ---------- *)

let byte_size t =
  match t.repr with
  | Flat_r a -> 8 * Array.length a
  | Pack_r { bytes; _ } -> Bytes.length bytes
  | Frame_r { bytes; bases; _ } -> Bytes.length bytes + (8 * Array.length bases)
  | Rle_r { values; _ } -> 16 * Array.length values

let flat_byte_size t = 8 * t.length
