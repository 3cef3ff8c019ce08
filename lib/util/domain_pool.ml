(* A fixed pool of worker domains executing indexed tasks.

   One task is active at a time. The caller installs the task, wakes the
   workers, then participates in the work itself; indices are claimed
   with an atomic counter, so items are distributed dynamically, but
   each result is stored at its input index — output order never
   depends on completion order.

   On an exception the task turns fail-fast: workers stop claiming new
   items (in-flight items finish), and the recorded error with the
   lowest input index is re-raised in the caller with its original
   backtrace. *)

(* Every domain runs under OCaml's default GC settings. The executor's
   per-row kernels allocate nothing, so a larger minor heap buys no
   fewer collections worth having — it only multiplies resident memory
   by the number of domains. Kept as a no-op for callers that still
   invoke it. *)
let tune_gc () = ()

type task = {
  n : int;
  run : int -> unit;
  chunk : int;
  next : int Atomic.t;
  (* Fail-fast flag, checked before every claim. (Deliberately not
     implemented by pushing [next] past [n]: repeated fetch_and_add
     could overflow and wrap negative, defeating the bounds check.) *)
  failed : bool Atomic.t;
  (* Guarded by the pool mutex. *)
  mutable entered : int;
  mutable exited : int;
  mutable error : (int * exn * Printexc.raw_backtrace) option;
}

type t = {
  mutex : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable task : task option;
  mutable generation : int;
  mutable busy : bool;
  mutable stopped : bool;
  mutable workers : unit Domain.t array;
}

let record_error t task i e =
  let bt = Printexc.get_raw_backtrace () in
  Atomic.set task.failed true;
  Mutex.lock t.mutex;
  (match task.error with
  | Some (j, _, _) when j <= i -> ()
  | _ -> task.error <- Some (i, e, bt));
  Mutex.unlock t.mutex

(* Claim and run chunks of consecutive items until the task is
   exhausted or failed. Runs in workers and in the caller alike.

   Chunks are claimed in index order and a claimed chunk runs its items
   in order with no mid-chunk failure check (it stops only when one of
   its *own* items raises) — this preserves the lowest-index-error
   guarantee: any item below a failing index sits in a chunk claimed no
   later, so it runs and its error, if any, wins. *)
let run_items t task =
  let continue = ref true in
  while !continue do
    if Atomic.get task.failed then continue := false
    else begin
      let i = Atomic.fetch_and_add task.next task.chunk in
      if i >= task.n then continue := false
      else
        let stop = min task.n (i + task.chunk) in
        let j = ref i in
        while !j < stop do
          (match task.run !j with
          | () -> ()
          | exception e ->
              record_error t task !j e;
              j := stop);
          incr j
        done
    end
  done

let worker_loop t =
  let seen = ref 0 in
  let continue = ref true in
  while !continue do
    Mutex.lock t.mutex;
    while (not t.stopped) && t.generation = !seen do
      Condition.wait t.work_ready t.mutex
    done;
    if t.stopped then begin
      Mutex.unlock t.mutex;
      continue := false
    end
    else begin
      seen := t.generation;
      match t.task with
      | None -> Mutex.unlock t.mutex
      | Some task ->
          task.entered <- task.entered + 1;
          Mutex.unlock t.mutex;
          run_items t task;
          Mutex.lock t.mutex;
          task.exited <- task.exited + 1;
          Condition.broadcast t.work_done;
          Mutex.unlock t.mutex
    end
  done

let create ~domains =
  if domains < 1 then invalid_arg "Domain_pool.create: domains must be >= 1";
  let t =
    {
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      task = None;
      generation = 0;
      busy = false;
      stopped = false;
      workers = [||];
    }
  in
  (* The caller participates in every map, so [domains] ways of
     parallelism need only [domains - 1] spawned workers; [~domains:1]
     spawns nothing and maps run serially. *)
  t.workers <- Array.init (domains - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let size t = Array.length t.workers + 1

let shutdown t =
  Mutex.lock t.mutex;
  t.stopped <- true;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.mutex;
  Array.iter Domain.join t.workers;
  t.workers <- [||]

(* The serial path: explicit left-to-right loop, so [-j 1] replays
   exactly the evaluation order of the pre-pool code. *)
let serial_map f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let r = Array.make n (f xs.(0)) in
    for i = 1 to n - 1 do
      r.(i) <- f xs.(i)
    done;
    r
  end

let map_array t f xs =
  (* Checked before the worker-count fallback: a shut-down pool has no
     workers, and silently degrading to serial would mask the misuse. *)
  if t.stopped then invalid_arg "Domain_pool.map_array: pool is shut down";
  let n = Array.length xs in
  if Array.length t.workers = 0 || n <= 1 then serial_map f xs
  else begin
    Mutex.lock t.mutex;
    if t.stopped then begin
      Mutex.unlock t.mutex;
      invalid_arg "Domain_pool.map_array: pool is shut down"
    end;
    if t.busy then begin
      (* A nested map from inside a running task would deadlock on the
         single task slot; run it serially instead. *)
      Mutex.unlock t.mutex;
      serial_map f xs
    end
    else begin
      let results = Array.make n None in
      (* A few chunks per participant keeps claim traffic low while the
         cap preserves balance over heterogeneous items. *)
      let chunk = min 16 (max 1 (n / ((Array.length t.workers + 1) * 4))) in
      let task =
        {
          n;
          run = (fun i -> results.(i) <- Some (f xs.(i)));
          chunk;
          next = Atomic.make 0;
          failed = Atomic.make false;
          entered = 0;
          exited = 0;
          error = None;
        }
      in
      t.generation <- t.generation + 1;
      t.task <- Some task;
      t.busy <- true;
      Condition.broadcast t.work_ready;
      Mutex.unlock t.mutex;
      run_items t task;
      Mutex.lock t.mutex;
      (* Wait until no worker still holds an in-flight item. A worker
         that wakes late (after this condition turns true) claims
         nothing: the index counter is exhausted or the task failed. *)
      while
        not
          (task.entered = task.exited
          && (Atomic.get task.failed || Atomic.get task.next >= n))
      do
        Condition.wait t.work_done t.mutex
      done;
      t.busy <- false;
      t.task <- None;
      Mutex.unlock t.mutex;
      match task.error with
      | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
      | None ->
          Array.map (function Some v -> v | None -> assert false) results
    end
  end

(* Run one body per worker slot on the existing task machinery: a task
   with [n = size] and [chunk = 1] hands out slot indices instead of
   item indices. Slots are claimed dynamically, so a late-waking worker
   may find the counter exhausted and run nothing while the caller runs
   two slots back to back — but every slot in [0, size) runs exactly
   once, and never concurrently with itself, so slot-indexed state needs
   no locking. The executor's morsel scheduler builds on exactly that. *)
let run_workers t f =
  if t.stopped then invalid_arg "Domain_pool.run_workers: pool is shut down";
  if Array.length t.workers = 0 then f 0
  else begin
    Mutex.lock t.mutex;
    if t.stopped then begin
      Mutex.unlock t.mutex;
      invalid_arg "Domain_pool.run_workers: pool is shut down"
    end;
    if t.busy then begin
      (* The single task slot is taken (a nested call from inside a
         running task, or another domain's query): the caller runs alone
         as slot 0, mirroring the nested-map serial fallback. *)
      Mutex.unlock t.mutex;
      f 0
    end
    else begin
      let task =
        {
          n = Array.length t.workers + 1;
          run = f;
          chunk = 1;
          next = Atomic.make 0;
          failed = Atomic.make false;
          entered = 0;
          exited = 0;
          error = None;
        }
      in
      t.generation <- t.generation + 1;
      t.task <- Some task;
      t.busy <- true;
      Condition.broadcast t.work_ready;
      Mutex.unlock t.mutex;
      run_items t task;
      Mutex.lock t.mutex;
      while
        not
          (task.entered = task.exited
          && (Atomic.get task.failed || Atomic.get task.next >= task.n))
      do
        Condition.wait t.work_done t.mutex
      done;
      t.busy <- false;
      t.task <- None;
      Mutex.unlock t.mutex;
      match task.error with
      | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()
    end
  end

let map_list t f xs = Array.to_list (map_array t f (Array.of_list xs))
