(* A multiset of fixed-arity integer tuples with float multiplicities —
   the aggregation kernel behind {!True_card}.

   The polymorphic [(int array, float) Hashtbl.t] it replaces allocated
   one key array per input row and re-dispatched the polymorphic hash on
   every probe. Here a probe allocates nothing: the caller fills a
   reusable scratch key, narrow keys (arity <= 2) pack into a single
   non-negative int compared directly, and wider keys are interned into
   a flat arena compared word-by-word. Groups are numbered densely in
   insertion order, so multiplicities live in a plain float array and
   iteration order is deterministic. *)

let null_code = Storage.Value.null_code

module Packed = struct
  (* Column codes are non-negative (dictionary codes, generated ids) or
     [null_code]; encoding shifts them by one so NULL gets slot 0 and
     every encoded value — and every packed key — stays non-negative
     (the "negative-free" invariant: a packed key never collides with
     the table's negative empty-slot sentinel). *)
  let encode v = if v = null_code then 0 else v + 1

  let decode e = if e = 0 then null_code else e - 1

  (* Encodable at all: NULL, or a value whose encoding fits an OCaml
     int without wrapping. Negative non-NULL codes are not encodable —
     they would collide with the shifted non-negatives. *)
  let fits v = v = null_code || (v >= 0 && v < max_int)

  let field_bits = 31

  let field_mask = (1 lsl field_bits) - 1

  (* Encodable into one of the two 31-bit fields of a packed pair. *)
  let fits2 v = v = null_code || (v >= 0 && v < field_mask)

  let pack2 a b = (encode a lsl field_bits) lor encode b

  let unpack2_fst k = decode (k lsr field_bits)

  let unpack2_snd k = decode (k land field_mask)
end

type t = {
  arity : int;
  (* Narrow keys start packed; the first value that does not fit
     migrates the whole table to the arena representation. *)
  mutable packed : bool;
  (* Open addressing, linear probing: slot -> group id, -1 empty. *)
  mutable slots : int array;
  mutable mask : int;
  mutable n : int;
  (* Packed mode: one word per group. Arena mode: [arity] words. *)
  mutable keys : int array;
  mutable counts : float array;
  scratch : int array;
}

let arity t = t.arity

let groups t = t.n

let scratch t = t.scratch

let is_packed t = t.packed

(* SplitMix64 finalizer truncated to OCaml's int; the identity hash
   would cluster consecutive ids into colliding runs. *)
let mix x =
  let open Int64 in
  let z = of_int x in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  to_int (logxor z (shift_right_logical z 31)) land Stdlib.max_int

let next_pow2 x =
  let rec go p = if p >= x then p else go (p * 2) in
  go 16

let create ?(expected = 16) ~arity () =
  if arity < 0 then invalid_arg "Group_table.create: negative arity";
  let cap = next_pow2 (2 * max 1 expected) in
  {
    arity;
    packed = arity <= 2;
    slots = Array.make cap (-1);
    mask = cap - 1;
    n = 0;
    keys = Array.make (max 1 (cap / 2) * max 1 arity) 0;
    counts = Array.make (max 1 (cap / 2)) 0.0;
    scratch = Array.make (max 1 arity) 0;
  }

(* Packed key of the scratch tuple, or -1 when a value does not fit. *)
let pack_scratch t =
  match t.arity with
  | 0 -> 0
  | 1 ->
      let v = t.scratch.(0) in
      if Packed.fits v then Packed.encode v else -1
  | _ ->
      let a = t.scratch.(0) and b = t.scratch.(1) in
      if Packed.fits2 a && Packed.fits2 b then Packed.pack2 a b else -1

let hash_scratch_arena t =
  let h = ref 0 in
  for f = 0 to t.arity - 1 do
    h := mix ((!h * 31) lxor t.scratch.(f))
  done;
  !h

let hash_of_group t id =
  if t.packed then mix t.keys.(id)
  else begin
    let h = ref 0 in
    let base = id * t.arity in
    for f = 0 to t.arity - 1 do
      h := mix ((!h * 31) lxor t.keys.(base + f))
    done;
    !h
  end

let rebuild_slots t =
  Array.fill t.slots 0 (Array.length t.slots) (-1);
  for id = 0 to t.n - 1 do
    let i = ref (hash_of_group t id land t.mask) in
    while t.slots.(!i) >= 0 do
      i := (!i + 1) land t.mask
    done;
    t.slots.(!i) <- id
  done

(* Grow the slot array when load reaches 1/2. *)
let maybe_grow t =
  if 2 * (t.n + 1) > Array.length t.slots then begin
    let cap = 2 * Array.length t.slots in
    t.slots <- Array.make cap (-1);
    t.mask <- cap - 1;
    rebuild_slots t
  end

let group_capacity t = Array.length t.counts

let key_width t = if t.packed then 1 else max 1 t.arity

let grow_groups t =
  if t.n = group_capacity t then begin
    let cap = 2 * group_capacity t in
    let keys = Array.make (cap * key_width t) 0 in
    Array.blit t.keys 0 keys 0 (t.n * key_width t);
    t.keys <- keys;
    let counts = Array.make cap 0.0 in
    Array.blit t.counts 0 counts 0 t.n;
    t.counts <- counts
  end

(* A scratch value did not fit the packed representation: unpack every
   stored key into the arena layout and stay there. *)
let migrate_to_arena t =
  assert t.packed;
  let keys = Array.make (max 1 (group_capacity t * t.arity)) 0 in
  for id = 0 to t.n - 1 do
    let k = t.keys.(id) in
    (match t.arity with
    | 1 -> keys.(id) <- Packed.decode k
    | 2 ->
        keys.(2 * id) <- Packed.unpack2_fst k;
        keys.((2 * id) + 1) <- Packed.unpack2_snd k
    | _ -> assert false);
    ()
  done;
  t.keys <- keys;
  t.packed <- false;
  rebuild_slots t

let scratch_equals_group t id =
  let base = id * t.arity in
  let rec go f =
    f = t.arity || (t.keys.(base + f) = t.scratch.(f) && go (f + 1))
  in
  go 0

(* Slot holding the scratch key, or the empty slot where it belongs. *)
let locate_packed t k =
  let i = ref (mix k land t.mask) in
  while
    let id = t.slots.(!i) in
    id >= 0 && t.keys.(id) <> k
  do
    i := (!i + 1) land t.mask
  done;
  !i

let locate_arena t =
  let i = ref (hash_scratch_arena t land t.mask) in
  while
    let id = t.slots.(!i) in
    id >= 0 && not (scratch_equals_group t id)
  do
    i := (!i + 1) land t.mask
  done;
  !i

let find t =
  if t.packed then begin
    let k = pack_scratch t in
    if k < 0 then -1 else t.slots.(locate_packed t k)
  end
  else t.slots.(locate_arena t)

let find_or_add t =
  maybe_grow t;
  let k = if t.packed then pack_scratch t else -1 in
  if t.packed && k < 0 then migrate_to_arena t;
  let slot = if t.packed then locate_packed t k else locate_arena t in
  let id = t.slots.(slot) in
  if id >= 0 then id
  else begin
    grow_groups t;
    let id = t.n in
    t.n <- id + 1;
    if t.packed then t.keys.(id) <- k
    else Array.blit t.scratch 0 t.keys (id * t.arity) t.arity;
    t.counts.(id) <- 0.0;
    t.slots.(slot) <- id;
    id
  end

let add_scratch t delta =
  let id = find_or_add t in
  t.counts.(id) <- t.counts.(id) +. delta

let count t id = t.counts.(id)

let counts t = t.counts

let component t id f =
  if t.packed then begin
    let k = t.keys.(id) in
    match t.arity with
    | 1 -> Packed.decode k
    | _ -> if f = 0 then Packed.unpack2_fst k else Packed.unpack2_snd k
  end
  else t.keys.((id * t.arity) + f)

(* Empty the slots of a few groups one by one: probing from each
   group's home slot for its own id finds it whatever holes the groups
   cleared before it left. A table with many groups refills the whole
   slot array instead. *)
let clear t =
  if 4 * t.n < Array.length t.slots then
    for id = 0 to t.n - 1 do
      let i = ref (hash_of_group t id land t.mask) in
      while t.slots.(!i) <> id do
        i := (!i + 1) land t.mask
      done;
      t.slots.(!i) <- -1
    done
  else Array.fill t.slots 0 (Array.length t.slots) (-1);
  t.n <- 0;
  t.packed <- t.arity <= 2

let iter t f =
  for id = 0 to t.n - 1 do
    f id t.counts.(id)
  done

let total t =
  let acc = ref 0.0 in
  for id = 0 to t.n - 1 do
    acc := !acc +. t.counts.(id)
  done;
  !acc
