(* The metrics registry. Registration is rare and cold (module init,
   first touch of a subsystem), so one mutex over a plain Hashtbl is
   the right shape; the hot path is the cells themselves, which are
   atomics (counters, gauges) or a mutex-guarded histogram, never the
   registry lock. domlint R8 confines cells like these to lib/obs/ —
   other layers hold handles, the state lives here. *)

module Counter = struct
  type t = int Atomic.t

  let make () = Atomic.make 0
  let incr t = Atomic.incr t

  let add t n =
    (* domlint: safe R6 — monotone telemetry accumulation: the summed
       value is never used to distribute work between domains *)
    ignore (Atomic.fetch_and_add t n)

  let value t = Atomic.get t
  let reset t = Atomic.set t 0
end

module Gauge = struct
  (* Boxed-float atomics: set/read are cold-path telemetry. *)
  type t = float Atomic.t

  let make () = Atomic.make 0.0
  let set t v = Atomic.set t v

  let rec set_max t v =
    let cur = Atomic.get t in
    if v > cur && not (Atomic.compare_and_set t cur v) then set_max t v

  let value t = Atomic.get t
  let reset t = Atomic.set t 0.0
end

module Hist = struct
  type t = { m : Mutex.t; mutable h : Histogram.t }

  let make () = { m = Mutex.create (); h = Histogram.create () }

  let observe t v =
    Mutex.lock t.m;
    Histogram.observe t.h v;
    Mutex.unlock t.m

  let snapshot t =
    Mutex.lock t.m;
    (* Merge with an empty histogram: a fresh copy, inputs untouched. *)
    let copy = Histogram.merge t.h (Histogram.create ()) in
    Mutex.unlock t.m;
    copy

  let reset t =
    Mutex.lock t.m;
    t.h <- Histogram.create ();
    Mutex.unlock t.m
end

type metric = C of Counter.t | G of Gauge.t | H of Hist.t

let registry_lock = Mutex.create ()

(* domlint: safe R1 — the registry table; every access is under
   [registry_lock] (see [with_registry]) *)
let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

let with_registry f =
  Mutex.lock registry_lock;
  match f registry with
  | v ->
      Mutex.unlock registry_lock;
      v
  | exception e ->
      Mutex.unlock registry_lock;
      raise e

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

let find_or_register name make expect =
  with_registry (fun tbl ->
      match Hashtbl.find_opt tbl name with
      | Some m -> (
          match expect m with
          | Some cell -> cell
          | None ->
              invalid_arg
                (Printf.sprintf
                   "Obs.Metrics: %S is already registered as a %s" name
                   (kind_name m)))
      | None ->
          let m = make () in
          Hashtbl.add tbl name m;
          match expect m with Some cell -> cell | None -> assert false)

let counter name =
  find_or_register name
    (fun () -> C (Counter.make ()))
    (function C c -> Some c | _ -> None)

let gauge name =
  find_or_register name
    (fun () -> G (Gauge.make ()))
    (function G g -> Some g | _ -> None)

let histogram name =
  find_or_register name
    (fun () -> H (Hist.make ()))
    (function H h -> Some h | _ -> None)

type value = Count of int | Level of float | Dist of Histogram.t

let dump () =
  let entries =
    with_registry (fun tbl -> Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  entries
  |> List.map (fun (name, m) ->
         ( name,
           match m with
           | C c -> Count (Counter.value c)
           | G g -> Level (Gauge.value g)
           | H h -> Dist (Hist.snapshot h) ))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
