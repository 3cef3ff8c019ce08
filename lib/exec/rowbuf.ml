(* Row ids as native-endian int32s in a [Bytes.t]. The primitives are
   the bounds-checked ones (not the [u]nsafe variants), and native code
   compiles them to one unboxed load or store. *)

type t = Bytes.t

external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32"

let create n = Bytes.create (4 * n)

(* Every byte 0xff: each slot reads as int32 -1. *)
let absent n = Bytes.make (4 * n) '\255'

let length b = Bytes.length b / 4
let byte_size = Bytes.length
let[@inline] get b i = Int32.to_int (get32 b (4 * i))

let[@inline] set b i v =
  (* One unsigned test: negative ids shift to huge values too. *)
  if v lsr 31 <> 0 then invalid_arg "Rowbuf.set: row id outside [0, 2^31)";
  set32 b (4 * i) (Int32.of_int v)

let set_ints b ids n =
  for k = 0 to n - 1 do
    set b k ids.(k)
  done

let[@inline] copy src i dst j = set32 dst (4 * j) (get32 src (4 * i))

let gather dst at src base pos =
  for k = 0 to Array.length pos - 1 do
    copy src (base + pos.(k)) dst (at + k)
  done

let blit src i dst j n = Bytes.blit src (4 * i) dst (4 * j) (4 * n)
