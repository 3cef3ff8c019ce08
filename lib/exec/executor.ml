module Bitset = Util.Bitset
module QG = Query.Query_graph

type result = {
  rows : int;
  work : int;
  runtime_ms : float;
  timed_out : bool;
  mins : Storage.Value.t list;
}

exception Timeout

(* Rows per morsel and per stage buffer: the unit every pipeline is
   scheduled, pushed and budget-checked in. *)
let chunk = 4096

(* Slots per staging segment of the materializing sink. Each worker
   that stages allocates at least one segment per query, so they stay
   small. *)
let seg_slots = 4096

(* Row-major tuple store: materialized intermediates, and the
   [chunk]-row buffers pipeline stages emit into. A slot is a row id at
   four bytes. *)
type batch = {
  rels : int array;
  slots : int array;  (* relation index -> slot, -1 when absent *)
  width : int;
  data : Rowbuf.t;
  mutable nrows : int;
}

(* Direct rel -> slot lookup for a tuple layout, built once per layout;
   [slot_in] runs per join-edge setup and per projection, so no linear
   scans there. *)
let layout rels =
  let slots = Array.make (Array.fold_left max 0 rels + 1) (-1) in
  Array.iteri (fun i rel -> slots.(rel) <- i) rels;
  slots

let batch_of rels data nrows =
  { rels; slots = layout rels; width = Array.length rels; data; nrows }

let slot_in slots rel =
  if rel >= Array.length slots || slots.(rel) < 0 then
    invalid_arg "Executor: relation not in batch"
  else slots.(rel)

(* The live-slot rule. A tuple of plan node [set] keeps the slot of
   relation [r] only if a later operator reads it: [r] is projected (a
   MIN column), or [r] has a join edge leaving [set] (a join key or
   post-filter further up). Every other slot is dropped where the tuple
   is built. A root with no projection (COUNT only) still keeps its
   first slot, so every layout has width >= 1. Partially applied once
   per run: the neighbour masks come from the graph's edges. *)
let live_relations graph ~projections =
  let projected =
    List.fold_left (fun s (rel, _) -> Bitset.add rel s) Bitset.empty projections
  in
  let nbr = Array.init (QG.n_relations graph) (QG.adjacency graph) in
  fun set rels ->
    match
      List.filter
        (fun r -> Bitset.mem r projected || not (Bitset.subset nbr.(r) set))
        (Array.to_list rels)
    with
    | [] -> [| rels.(0) |]
    | live -> Array.of_list live

(* Positions in layout [src] of [out]'s relations that [src] holds, in
   [out]'s order: the gather map from an input tuple to its part of an
   output tuple. *)
let positions ~out src =
  let slots = layout src in
  Array.of_list
    (List.filter_map
       (fun r ->
         if r < Array.length slots && slots.(r) >= 0 then Some slots.(r) else None)
       (Array.to_list out))

(* Copy the slots at [pos] of row [row] of [src] into [dst] from [at]. *)
let gather dst at (src : batch) row pos =
  Rowbuf.gather dst at src.data (row * src.width) pos

(* {!Rowbuf.get}, inline: the id in slot [i] of a batch's data. *)
let[@inline] row_id data i = Int32.to_int (Rowbuf.get32 data (4 * i))

let null = Storage.Value.null_code

(* Composite hashes are non-negative ({!Join_table.mix} masks the sign
   bit), so a negative sentinel marks "some key column is NULL" without
   allocating an option per row. *)
let null_key = -1

(* Placeholder filling reader arrays before the per-edge closures land. *)
let no_reader : int -> int = fun _ -> null

(* Interned trace phases, resolved once at module init. With tracing
   disabled the per-node cost is one atomic load (Obs.Trace.start
   returning the 0 sentinel) plus an integer compare — the executor's
   hot path carries the instrumentation permanently. *)
let ph_exec = Obs.Trace.intern "exec"
let ph_scan = Obs.Trace.intern "exec.scan"
let ph_hash_join = Obs.Trace.intern "exec.hash_join"
let ph_merge_join = Obs.Trace.intern "exec.merge_join"
let ph_nl_join = Obs.Trace.intern "exec.nl_join"
let ph_index_nl_join = Obs.Trace.intern "exec.index_nl_join"

let phase_of (p : Plan.t) =
  match p.Plan.op with
  | Plan.Scan _ -> ph_scan
  | Plan.Join { algo = Plan.Hash_join; _ } -> ph_hash_join
  | Plan.Join { algo = Plan.Merge_join; _ } -> ph_merge_join
  | Plan.Join { algo = Plan.Nl_join; _ } -> ph_nl_join
  | Plan.Join { algo = Plan.Index_nl_join; _ } -> ph_index_nl_join

(* Per-slot scratch for morsel phases. A slot is owned by at most one
   running worker at a time ({!Util.Domain_pool.run_workers}'s
   contract), so nothing here is locked. [wsegs] is the materializing
   sink's staging area: [seg_slots]-slot segments, appended and never
   regrown, holding the slot's output of the phase as one slot stream;
   the caller copies each morsel's run of it into the stored batch in
   morsel-index order, which is what makes materialized batches
   independent of how many slots ran the pipeline. *)
type wstate = {
  wslot : int;
  mutable wsegs : Rowbuf.t array;
  mutable wlen : int; (* slots staged in the current phase *)
  wsel : int array; (* scan selection-vector scratch *)
  wscan : Rowbuf.t; (* the selected rows, as the scan's output batch *)
  mutable wfill : (int array -> int -> int -> int) option;
      (* per-phase selector instance (owns mutable decode scratch) *)
  mutable wclaims : int; (* morsels claimed in the current phase *)
}

(* Cut slots [off, off + len) of [w]'s staging into runs that each lie
   in one segment, appending segments as staging reaches them:
   [f seg at k n] for the [n] slots at [seg]'s slot [at], the [k]-th
   slot of the range onwards. *)
let seg_runs w off len f =
  let k = ref 0 in
  while !k < len do
    let s = (off + !k) / seg_slots and at = (off + !k) mod seg_slots in
    if s = Array.length w.wsegs then
      w.wsegs <- Array.append w.wsegs [| Rowbuf.create seg_slots |];
    let n = min (len - !k) (seg_slots - at) in
    f w.wsegs.(s) at !k n;
    k := !k + n
  done

(* [consume w b lo hi] feeds rows [lo, hi) of [b] to a pipeline stage or
   sink, on worker slot [w]. *)
type consumer = wstate -> batch -> int -> int -> unit

(* One stage's output on one worker slot: at most [chunk] tuples, plus
   the work and rows it emitted since they were last charged. *)
type obuf = { ob : batch; mutable owk : int; mutable orows : int }

(* A probe stage whose build side is ready. [kernel bufs push] is its
   consumer: it emits into [bufs.(slot)], adds its charges there, and
   calls [push] on a full buffer. *)
type stage = {
  node : Plan.t;
  out_rels : int array;
  rows : Morsel.acc;  (* rows emitted: the node's exact cardinality *)
  kernel : obuf array -> (wstate -> obuf -> unit) -> consumer;
  release : unit -> unit;  (* retires the build side after the pipeline *)
}

(* Where a pipeline's tuples come from: a base-table scan (a selection
   vector per morsel) or an already materialized batch. *)
type source = Scan_src of Plan.t * int | Batch_src of batch

let run ~db ~graph ~config ~size_est ?observe ?pool ?cache ?(projections = [])
    plan =
  let work = ref 0 in
  let limit = config.Engine_config.work_limit in
  let row_limit = config.Engine_config.row_limit in
  let spend n =
    work := !work + n;
    if !work > limit then raise Timeout
  in
  (* Random-access code readers (the column layer is sealed; flat columns
     compile to a plain array load, packed ones to shift/mask). *)
  let column_data rel col =
    Storage.Column.reader (Storage.Table.column (QG.relation graph rel).QG.table col)
  in

  (* Scratch pools: row buffers retired by consumed intermediate
     batches and stage buffers, and the merge join's full-width key
     arrays, each reused best-fit for the next one. A bushy plan stops
     reallocating its working set once the first few joins have sized
     it. Buffers are never cleared on reuse — every consumer writes
     before it reads. Only the calling domain touches the pools
     (pipelines set up and tear down there). *)
  let scratch ~length ~make =
    let free = ref [] in
    let acquire min_len =
      let best =
        List.fold_left
          (fun best a ->
            let n = length a in
            if n >= min_len
               && (match best with Some b -> n < length b | None -> true)
            then Some a
            else best)
          None !free
      in
      match best with
      | Some a ->
          free := List.filter (fun b -> b != a) !free;
          a
      | None -> make (max 1024 min_len)
    in
    let release a = if length a >= 1024 then free := a :: !free in
    (acquire, release)
  in
  let rows_acquire, rows_release =
    scratch ~length:Rowbuf.length ~make:Rowbuf.create
  in
  let keys_acquire, keys_release =
    scratch ~length:Array.length ~make:(fun n -> Array.make n 0)
  in
  let retire b = rows_release b.data in

  (* A [chunk]-row buffer: what a stage emits into. *)
  let chunk_batch rels = batch_of rels (rows_acquire (Array.length rels * chunk)) 0 in

  (* Join-key accessors per edge, preextracted into flat parallel arrays
     (slot and column data) for a tuple layout, so the per-row key loop
     touches no lists, no tuples, and no closures. *)
  let key_arrays slots side edges =
    let k = List.length edges in
    let kslots = Array.make k 0 in
    let datas = Array.make k no_reader in
    List.iteri
      (fun idx (e : QG.edge) ->
        match side with
        | `Outer ->
            kslots.(idx) <- slot_in slots e.QG.left;
            datas.(idx) <- column_data e.QG.left e.QG.left_col
        | `Inner ->
            kslots.(idx) <- slot_in slots e.QG.right;
            datas.(idx) <- column_data e.QG.right e.QG.right_col)
      edges;
    (kslots, datas)
  in
  (* Composite hash of a tuple's join-key columns; [null_key] if any is
     NULL. *)
  let tuple_key batch slots datas i =
    let base = i * batch.width in
    let h = ref 0 in
    let ok = ref true in
    for k = 0 to Array.length slots - 1 do
      let v =
        (Array.unsafe_get datas k)
          (row_id batch.data (base + Array.unsafe_get slots k))
      in
      if v = null then ok := false else h := Join_table.combine !h v
    done;
    if !ok then !h else null_key
  in
  (* A join's output layout over [set] — the live relations of its
     outer layout, then of its inner one — with the gather map from
     each. *)
  let join_layout =
    let live = live_relations graph ~projections in
    fun set orels irels ->
      let out = live set (Array.append orels irels) in
      (out, positions ~out orels, positions ~out irels)
  in
  let keys_equal outer oslots odatas i inner islots idatas j =
    let obase = i * outer.width and ibase = j * inner.width in
    let k = ref 0 and eq = ref true in
    while !eq && !k < Array.length oslots do
      let ov = odatas.(!k) (row_id outer.data (obase + oslots.(!k))) in
      let iv = idatas.(!k) (row_id inner.data (ibase + islots.(!k))) in
      eq := ov = iv && ov <> null;
      incr k
    done;
    !eq
  in

  (* ---------------- Morsel phases ----------------

     Every vectorized phase — a pipeline, a hash-build key pass — carves
     its input rows into [chunk]-row morsels handed out by an atomic
     cursor. With a pool of at least two domains and at least two
     morsels of input, the pool's workers claim them; otherwise the
     calling domain drains the cursor alone, as slot 0, in morsel order.

     Accounting: a phase's work goes into one shared [Morsel.acc] total
     and each pipeline stage's emitted rows into its own, through
     [charge], which compares the committed totals against the limits
     every time a stage settles. Sums are order-independent, so the
     budget trips on the same condition at any worker count — and on
     the same condition whether or not an intermediate is stored. A
     tripped budget raises {!Timeout} (the pool re-raises a worker's),
     and the top-level handler below turns it into the usual timeout
     result. *)
  let nworkers =
    match pool with Some p -> Util.Domain_pool.size p | None -> 1
  in
  let workers =
    Array.init nworkers (fun slot ->
        {
          wslot = slot;
          wsegs = [||];
          wlen = 0;
          wsel = Array.make chunk 0;
          wscan = Rowbuf.create chunk;
          wfill = None;
          wclaims = 0;
        })
  in
  let phase_work = Morsel.acc () in
  (* [!work] is only written between phases, so workers may read it. *)
  let charge_work wk =
    if !work + Morsel.add phase_work wk > limit then raise Timeout
  in
  let charge rows wk n =
    charge_work wk;
    if n > 0 && Morsel.add rows n > row_limit then raise Timeout
  in
  (* Run [body w m lo hi] for every morsel [m] = rows [lo, hi) of an
     [n]-row input. *)
  let run_phase ~n body =
    Morsel.reset phase_work;
    Array.iter
      (fun w ->
        w.wlen <- 0;
        w.wfill <- None;
        w.wclaims <- 0)
      workers;
    let cur = Morsel.cursor ((n + chunk - 1) / chunk) in
    let drain slot =
      let w = workers.(slot) in
      let m = ref (Morsel.claim cur) in
      while !m >= 0 do
        w.wclaims <- w.wclaims + 1;
        let lo = !m * chunk in
        body w !m lo (min n (lo + chunk));
        m := Morsel.claim cur
      done
    in
    (match pool with
    | Some p when nworkers > 1 && n >= 2 * chunk ->
        Fun.protect
          ~finally:(fun () ->
            Morsel.note_phase (Array.map (fun w -> w.wclaims) workers))
          (fun () -> Util.Domain_pool.run_workers p drain)
    | _ -> drain 0);
    work := !work + Morsel.total phase_work
  in
  (* Store what the slots staged as a batch of layout [rels]: one
     exact-size buffer, into which morsel [m]'s [m_cnt.(m)] slots are
     copied from slot [m_src.(m)]'s staging at [m_off.(m)], in morsel
     order. Each slot then keeps at most its first segment, so no slot
     holds a phase's high-water mark into the next. *)
  let assemble rels m_src m_off m_cnt =
    let data = Rowbuf.create (Array.fold_left ( + ) 0 m_cnt) in
    let at = ref 0 in
    Array.iteri
      (fun m cnt ->
        let base = !at in
        seg_runs workers.(m_src.(m)) m_off.(m) cnt (fun seg o k n ->
            Rowbuf.blit seg o data (base + k) n);
        at := base + cnt)
      m_cnt;
    Array.iter
      (fun w -> if Array.length w.wsegs > 1 then w.wsegs <- [| w.wsegs.(0) |])
      workers;
    batch_of rels data (!at / Array.length rels)
  in

  (* Checkpoint instrumentation: after a node's result is complete,
     report its exact cardinality and the work spent so far. [observe]
     defaults to [None], in which case the hook is a single option match
     per plan node — no closure, no allocation. An Index_nl_join's inner
     scan is never evaluated on its own, so it reports no checkpoint;
     the joined result does. Observer exceptions propagate to the caller
     (only {!Timeout} is caught below) — the re-optimization driver uses
     exactly that to abandon a doomed plan mid-flight. *)
  let checkpoint set rows =
    match observe with None -> () | Some f -> f set ~rows ~work:!work
  in

  (* ---------------- Probe stages ----------------

     A stage consumes its input tuples a chunk at a time and emits
     joined tuples into its slot's [chunk]-row buffer. An output tuple
     is its input's live slots followed by its inner side's
     ([join_layout] at the stage's node), gathered through two position
     arrays fixed when the stage is prepared. A full buffer is
     pushed, in order, to the next stage or the sink, so a stage's
     output is never stored whatever its fan-out. A stage charges its
     operator's work units whether or not it is fused. Emitted rows are
     always charged, so no intermediate — stored or not — can outgrow
     the work budget. *)
  let emit_cost = 2 in

  (* Hash-based matching shared by hash join and the nested-loop
     shortcut. [charge_hash] selects whether hash build/probe work is
     charged; the NL shortcut instead charges [pair_cost] (the inner's
     row count) per outer row — the quadratic pair count in total. *)
  let hash_stage node ~in_rels ~edges ~charge_hash ~pair_cost ~table_size
      ?(retire_inner = true) ?prebuilt ?install (inner : batch) =
    if edges = [] then invalid_arg "Executor: cross product";
    let oslots, odatas = key_arrays (layout in_rels) `Outer edges in
    let islots, idatas = key_arrays inner.slots `Inner edges in
    let jt =
      match prebuilt with
      | Some jt ->
          (* Recycled sealed table (the caller already replayed the
             build's work charges): straight to the probe. *)
          jt
      | None ->
          (* Build, two-step: a morsel phase computes every build row's
             key hash (1 work unit per row, NULL keys included) —
             disjoint writes into one row-indexed array, which the table
             adopts as its hash column, so entry j is build row j
             whatever the schedule — then one seal links chains in
             canonical ascending-row order and charges the resize bill. *)
          let n = inner.nrows in
          let hashes = Array.make n 0 in
          run_phase ~n (fun _w _m lo hi ->
              for j = lo to hi - 1 do
                hashes.(j) <- tuple_key inner islots idatas j
              done;
              if charge_hash then charge_work (hi - lo));
          let jt =
            Join_table.create
              ~bucket_floor:config.Engine_config.hash_bucket_floor
              ~estimated_rows:table_size
              ~resizable:config.Engine_config.resize_hash_tables hashes
          in
          let seal_work = Join_table.seal jt in
          if charge_hash then spend seal_work;
          Option.iter (fun f -> f ~table:jt ~seal_work) install;
          jt
    in
    let out_rels, opos, ipos = join_layout node.Plan.set in_rels inner.rels in
    let ow = Array.length opos in
    let width = Array.length out_rels in
    let kernel bufs push w (b : batch) lo hi =
      let o = bufs.(w.wslot) in
      let out = o.ob in
      for i = lo to hi - 1 do
        o.owk <- o.owk + pair_cost;
        let h = tuple_key b oslots odatas i in
        if h <> null_key then begin
          (* Walk the chain inline: no callback, nothing allocated. *)
          let e = ref (Join_table.head jt ~hash:h) and chain = ref 0 in
          while !e >= 0 do
            incr chain;
            if Join_table.entry_hash jt !e = h then begin
              let j = !e in
              if keys_equal b oslots odatas i inner islots idatas j then begin
                let base = out.nrows * width in
                gather out.data base b i opos;
                gather out.data (base + ow) inner j ipos;
                out.nrows <- out.nrows + 1;
                o.orows <- o.orows + 1;
                o.owk <- o.owk + emit_cost;
                if out.nrows = chunk then push w o
              end
            end;
            e := Join_table.next jt !e
          done;
          if charge_hash then
            o.owk <- o.owk + Join_table.probe_work ~chain:!chain
        end
        else if charge_hash then o.owk <- o.owk + 1
      done
    in
    {
      node;
      out_rels;
      rows = Morsel.acc ();
      kernel;
      release = (fun () -> if retire_inner then retire inner);
    }
  in

  (* Index-NL probe. Index lookups are read-only (the database's index
     cache is a copy-on-write snapshot) and the compiled predicate's only
     mutable state is validated-before-use reader caches, so the stage
     runs on any worker like a hash probe. *)
  let index_stage node ~in_rels ~edges inner_rel =
    let relation = QG.relation graph inner_rel in
    let table = relation.QG.table in
    let table_name = Storage.Table.name table in
    let pred = Query.Predicate.compile table relation.QG.preds in
    (* Pick an indexed edge for the lookup; remaining edges are
       post-filters. *)
    let indexed_edge, index =
      let rec find = function
        | [] -> invalid_arg "Executor: index-NL join without an available index"
        | (e : QG.edge) :: rest -> (
            match Storage.Database.index db ~table:table_name ~col:e.QG.right_col with
            | Some idx -> (e, idx)
            | None -> find rest)
      in
      find edges
    in
    let other_edges = List.filter (fun e -> e != indexed_edge) edges in
    let in_slots = layout in_rels in
    let outer_key_slot = slot_in in_slots indexed_edge.QG.left in
    let outer_key_data = column_data indexed_edge.QG.left indexed_edge.QG.left_col in
    (* Post-filter edges, preextracted like the join keys above. *)
    let nf = List.length other_edges in
    let f_oslots = Array.make nf 0 in
    let f_odatas = Array.make nf no_reader in
    let f_idatas = Array.make nf no_reader in
    List.iteri
      (fun k (e : QG.edge) ->
        f_oslots.(k) <- slot_in in_slots e.QG.left;
        f_odatas.(k) <- column_data e.QG.left e.QG.left_col;
        f_idatas.(k) <- column_data e.QG.right e.QG.right_col)
      other_edges;
    let out_rels, opos, ipos = join_layout node.Plan.set in_rels [| inner_rel |] in
    let ow = Array.length opos in
    let keep_inner = Array.length ipos > 0 in
    let width = Array.length out_rels in
    let filters_pass (b : batch) i inner_row =
      let base = i * b.width in
      let k = ref 0 and pass = ref true in
      while !pass && !k < nf do
        let ov = f_odatas.(!k) (row_id b.data (base + f_oslots.(!k))) in
        pass := ov <> null && ov = f_idatas.(!k) inner_row;
        incr k
      done;
      !pass
    in
    let kernel bufs push w (b : batch) lo hi =
      let o = bufs.(w.wslot) in
      let out = o.ob in
      for i = lo to hi - 1 do
        o.owk <- o.owk + 4; (* index descent: random access *)
        let key = outer_key_data (row_id b.data ((i * b.width) + outer_key_slot)) in
        let slot = Storage.Index.slot index key in
        if slot >= 0 then begin
          let first = Storage.Index.first index slot
          and stop = Storage.Index.stop index slot in
          o.owk <- o.owk + (stop - first);
          for p = first to stop - 1 do
            let inner_row = Storage.Index.row index p in
            if pred inner_row && filters_pass b i inner_row then begin
              let base = out.nrows * width in
              gather out.data base b i opos;
              if keep_inner then Rowbuf.set out.data (base + ow) inner_row;
              out.nrows <- out.nrows + 1;
              o.orows <- o.orows + 1;
              o.owk <- o.owk + 1;
              if out.nrows = chunk then push w o
            end
          done
        end
      done
    in
    { node; out_rels; rows = Morsel.acc (); kernel; release = ignore }
  in

  (* Wire [st] to its downstream consumer [next]: per-slot output
     buffers, the settle-then-push protocol, and the end-of-morsel
     flush. Returns the stage's consumer, its flush and its buffers. *)
  let connect st next =
    let bufs =
      Array.init nworkers (fun _ ->
          { ob = chunk_batch st.out_rels; owk = 0; orows = 0 })
    in
    let settle o =
      charge st.rows o.owk o.orows;
      o.owk <- 0;
      o.orows <- 0
    in
    let push w o =
      settle o;
      if o.ob.nrows > 0 then begin
        next w o.ob 0 o.ob.nrows;
        o.ob.nrows <- 0
      end
    in
    let probe = st.kernel bufs push in
    let consume w b lo hi =
      probe w b lo hi;
      settle bufs.(w.wslot)
    in
    (consume, (fun w -> push w bufs.(w.wslot)), bufs)
  in

  (* The materializing sink: copy the tuples into the slot's staging
     segments; [assemble] stores them by morsel index. *)
  let stage w (b : batch) lo hi =
    let pos = lo * b.width and len = (hi - lo) * b.width in
    seg_runs w w.wlen len (fun seg at k n -> Rowbuf.blit b.data (pos + k) seg at n);
    w.wlen <- w.wlen + len
  in

  (* Sort-merge join: sort both inputs' tuple indexes by composite key
     hash (equal keys share a hash; real equality re-checked on match),
     then merge runs pairwise. Sorting is charged n log2 n comparisons. *)
  let merge_join ~oset ~iset outer inner =
    let edges = QG.edges_between graph oset iset in
    if edges = [] then invalid_arg "Executor: cross product";
    let oslots, odatas = key_arrays outer.slots `Outer edges in
    let islots, idatas = key_arrays inner.slots `Inner edges in
    (* Per-row keys land in a pooled full-width buffer (a truncated key
       would merge more hash-equal runs); the sorted side is a
       permutation of the non-NULL row ids ordered by (key, row) —
       exactly the order the former boxed (key, row) pair sort produced,
       without building a list or allocating a tuple per row. *)
    let sort_side batch slots datas =
      let nrows = batch.nrows in
      let keys = keys_acquire (max 1 nrows) in
      let m = ref 0 in
      for i = 0 to nrows - 1 do
        let h = tuple_key batch slots datas i in
        keys.(i) <- h;
        if h <> null_key then incr m
      done;
      let idx = Array.make (max 1 !m) 0 in
      let k = ref 0 in
      for i = 0 to nrows - 1 do
        if keys.(i) <> null_key then begin
          idx.(!k) <- i;
          incr k
        end
      done;
      (* Merge sort: the stdlib heapsort allocates an exception per
         sift-down. The order is a total one, so any sort gives the
         same permutation. *)
      Array.stable_sort
        (fun a b ->
          let c = Int.compare keys.(a) keys.(b) in
          if c <> 0 then c else Int.compare a b)
        idx;
      let n = float_of_int !m in
      let comparisons =
        if n <= 2.0 then n else n *. (Float.log n /. Float.log 2.0)
      in
      spend (int_of_float comparisons);
      (keys, idx, !m)
    in
    let okeys, oidx, no = sort_side outer oslots odatas in
    let ikeys, iidx, ni = sort_side inner islots idatas in
    let out_rels, opos, ipos =
      join_layout (Bitset.union oset iset) outer.rels inner.rels
    in
    let width = Array.length out_rels and ow = Array.length opos in
    (* Joined tuples are gathered straight into slot 0's staging
       segments, the materializing sink's store, as one morsel: into
       the current segment when the tuple fits there, otherwise through
       [seg_runs], where [put] writes slots [k, k + n) of the tuple
       joining outer row [!oi] and inner row [!ij]. *)
    let w0 = workers.(0) in
    w0.wlen <- 0;
    let oi = ref 0 and ij = ref 0 in
    let put seg at k n =
      let obase = !oi * outer.width and ibase = !ij * inner.width in
      for x = k to k + n - 1 do
        if x < ow then Rowbuf.copy outer.data (obase + opos.(x)) seg (at + x - k)
        else Rowbuf.copy inner.data (ibase + ipos.(x - ow)) seg (at + x - k)
      done
    in
    let stage_tuple () =
      let off = w0.wlen in
      let s = off / seg_slots and at = off mod seg_slots in
      if at + width <= seg_slots && s < Array.length w0.wsegs then begin
        gather w0.wsegs.(s) at outer !oi opos;
        gather w0.wsegs.(s) (at + ow) inner !ij ipos
      end
      else seg_runs w0 off width put;
      w0.wlen <- off + width
    in
    let rows = ref 0 in
    let i = ref 0 and j = ref 0 in
    while !i < no && !j < ni do
      spend 1;
      let oh = okeys.(oidx.(!i)) and ih = ikeys.(iidx.(!j)) in
      if oh < ih then incr i
      else if oh > ih then incr j
      else begin
        (* Matching run: find the extent of equal hashes on both sides. *)
        let i_end = ref !i and j_end = ref !j in
        while !i_end < no && okeys.(oidx.(!i_end)) = oh do
          incr i_end
        done;
        while !j_end < ni && ikeys.(iidx.(!j_end)) = ih do
          incr j_end
        done;
        for a = !i to !i_end - 1 do
          for b = !j to !j_end - 1 do
            spend 1;
            oi := oidx.(a);
            ij := iidx.(b);
            if keys_equal outer oslots odatas !oi inner islots idatas !ij then begin
              (* The work_mem stand-in: an output outgrowing the row
                 budget counts as a timeout. *)
              incr rows;
              if !rows > row_limit then raise Timeout;
              stage_tuple ();
              spend emit_cost
            end
          done
        done;
        i := !i_end;
        j := !j_end
      end
    done;
    keys_release okeys;
    keys_release ikeys;
    retire outer;
    retire inner;
    assemble out_rels [| 0 |] [| 0 |] [| w0.wlen |]
  in

  (* ---------------- Pipelines ----------------

     A pipeline is a source, a chain of probe stages and a sink. The
     breaker rule, in one place: [p]'s outer (probe) input is fused into
     [p]'s pipeline iff [p] is a hash, NL or index-NL join and no
     observer is attached. Everything else is materialized — build
     sides, merge-join inputs and outputs, and, under an observer, every
     node, so each checkpoint fires in the same post-order with the same
     cumulative work as a one-stage-per-pipeline run. *)
  let fuses_outer (p : Plan.t) =
    Option.is_none observe
    &&
    match p.Plan.op with
    | Plan.Join { algo; _ } -> algo <> Plan.Merge_join
    | Plan.Scan _ -> false
  in

  let rec materialize (p : Plan.t) : batch =
    match p.Plan.op with
    | Plan.Join { algo = Plan.Merge_join; outer; inner } ->
        let t0 = Obs.Trace.start () in
        let ob = materialize outer in
        let ib = materialize inner in
        let b = merge_join ~oset:outer.Plan.set ~iset:inner.Plan.set ob ib in
        Obs.Trace.span ph_merge_join ~t0 ~a:b.nrows ~b:!work;
        checkpoint p.Plan.set b.nrows;
        b
    | Plan.Scan _ | Plan.Join _ ->
        let rels, m_src, m_off, m_cnt = pipeline p ~sink:(fun _ -> stage) in
        assemble rels m_src m_off m_cnt

  (* Run the pipeline computing [p] into the consumer [sink rels] makes
     for its output layout [rels]. Returns that layout and, per source
     morsel, the slot, offset and length in slots of what it staged. *)
  and pipeline (p : Plan.t) ~sink =
    let t0 = Obs.Trace.start () in
    let source, rev_stages, rels = plan_pipeline p in
    (* Wire top-down: each stage pushes into the one above it. Flushes
       end up bottom-first, the order that keeps every buffer FIFO. *)
    let first, flushes, buffers =
      List.fold_left
        (fun (next, flushes, buffers) st ->
          let consume, flush, bufs = connect st next in
          (consume, flush :: flushes, bufs :: buffers))
        (sink rels, [], []) rev_stages
    in
    let src_rows = Morsel.acc () in
    let n, feed =
      match source with
      | Batch_src b -> (b.nrows, fun w lo hi -> first w b lo hi)
      | Scan_src (_, rel) ->
          let relation = QG.relation graph rel in
          let table = relation.QG.table in
          (* Each slot mints its own selector instance from a shared
             factory (dictionary bitmaps compiled once), since an
             instance owns mutable decode scratch. *)
          let factory = Query.Predicate.selector_factory table relation.QG.preds in
          let sel = Array.map (fun w -> batch_of [| rel |] w.wscan 0) workers in
          ( Storage.Table.row_count table,
            fun w lo hi ->
              let fill =
                match w.wfill with
                | Some f -> f
                | None ->
                    let f = factory () in
                    w.wfill <- Some f;
                    f
              in
              let cnt = fill w.wsel lo hi in
              Rowbuf.set_ints w.wscan w.wsel cnt;
              charge_work (hi - lo);
              ignore (Morsel.add src_rows cnt);
              first w sel.(w.wslot) 0 cnt )
    in
    let morsels = (n + chunk - 1) / chunk in
    let m_src = Array.make morsels 0
    and m_off = Array.make morsels 0
    and m_cnt = Array.make morsels 0 in
    run_phase ~n (fun w m lo hi ->
        m_src.(m) <- w.wslot;
        m_off.(m) <- w.wlen;
        feed w lo hi;
        List.iter (fun flush -> flush w) flushes;
        m_cnt.(m) <- w.wlen - m_off.(m));
    List.iter (Array.iter (fun o -> rows_release o.ob.data)) buffers;
    List.iter (fun st -> st.release ()) rev_stages;
    (match source with Batch_src b -> retire b | Scan_src _ -> ());
    (* Every node of the pipeline records its span, bottom-up, with its
       exact rows and the work when the pipeline finished. The
       pipeline's wall time goes to the top node's span; the fused nodes
       below it record instants, so self times do not double count. *)
    let nodes =
      (match source with
      | Scan_src (node, _) -> [ (node, Morsel.total src_rows) ]
      | Batch_src _ -> [])
      @ List.rev_map (fun st -> (st.node, Morsel.total st.rows)) rev_stages
    in
    let rec record = function
      | [] -> ()
      | [ ((node : Plan.t), rows) ] ->
          Obs.Trace.span (phase_of node) ~t0 ~a:rows ~b:!work;
          checkpoint node.Plan.set rows
      | ((node : Plan.t), rows) :: rest ->
          Obs.Trace.event (phase_of node) ~a:rows ~b:!work;
          checkpoint node.Plan.set rows;
          record rest
    in
    record nodes;
    (rels, m_src, m_off, m_cnt)

  (* The source and the stages (top first) of the pipeline computing
     [p], with its output layout. Build sides are materialized here,
     bottom-up, after the source. *)
  and plan_pipeline (p : Plan.t) =
    match p.Plan.op with
    | Plan.Scan rel -> (Scan_src (p, rel), [], [| rel |])
    | Plan.Join { algo = Plan.Merge_join; _ } ->
        let b = materialize p in
        (Batch_src b, [], b.rels)
    | Plan.Join { algo; outer; inner } ->
        (match (algo, inner.Plan.op) with
        | Plan.Nl_join, _ when not config.Engine_config.allow_nl_join ->
            invalid_arg "Executor: nested-loop join disabled in this configuration"
        | Plan.Index_nl_join, Plan.Join _ ->
            invalid_arg "Executor: index-NL inner must be base"
        | _ -> ());
        let source, stages, in_rels =
          if fuses_outer p then plan_pipeline outer
          else
            let b = materialize outer in
            (Batch_src b, [], b.rels)
        in
        let st = prepare_stage p ~in_rels ~outer ~inner in
        (source, st :: stages, st.out_rels)

  and prepare_stage (p : Plan.t) ~in_rels ~(outer : Plan.t) ~(inner : Plan.t) =
    let edges = QG.edges_between graph outer.Plan.set inner.Plan.set in
    match (p.Plan.op, inner.Plan.op) with
    | Plan.Join { algo = Plan.Index_nl_join; _ }, Plan.Scan rel ->
        index_stage p ~in_rels ~edges rel
    | Plan.Join { algo = Plan.Nl_join; _ }, _ ->
        let ib = materialize inner in
        hash_stage p ~in_rels ~edges ~charge_hash:false ~pair_cost:ib.nrows
          ~table_size:(float_of_int (max 16 ib.nrows))
          ib
    | _ -> (
        (* The hash table is sized from the optimizer's estimate of the
           build (inner) side — the 9.4 pathology under underestimates. *)
        let table_size = size_est inner.Plan.set in
        let hash = hash_stage p ~in_rels ~edges ~charge_hash:true ~pair_cost:0 ~table_size in
        (* Recycling applies only when the build side is a bare
           base-relation scan: then the sealed table plus the surviving
           row set is a pure function of (table, predicate, key columns,
           bucket sizing), all captured by the cache key. *)
        match (cache, inner.Plan.op) with
        | Some c, Plan.Scan rel -> (
            let relation = QG.relation graph rel in
            let table = relation.QG.table in
            let scan_rows = Storage.Table.row_count table in
            let key =
              Join_cache.make_key
                ~table:(Storage.Table.name table)
                ~table_rows:scan_rows
                ~pred:(Join_cache.pred_digest relation.QG.preds)
                ~cols:(List.map (fun (e : QG.edge) -> e.QG.right_col) edges)
                ~buckets:
                  (Join_table.planned_buckets
                     ~bucket_floor:config.Engine_config.hash_bucket_floor
                     ~estimated_rows:table_size ())
                ~resizable:config.Engine_config.resize_hash_tables
            in
            match Join_cache.find c key with
            | Some entry ->
                (* Hit: skip the build-side scan and the hash build, but
                   replay their exact simulated-work charges and fire the
                   inner scan's checkpoint where the uncached path would
                   have — results, work, observer sequences, and timeout
                   behaviour stay byte-identical; only wall-clock drops. *)
                spend entry.Join_cache.e_scan_work;
                let ib =
                  batch_of [| rel |] entry.Join_cache.e_rows
                    entry.Join_cache.e_nrows
                in
                checkpoint inner.Plan.set ib.nrows;
                spend entry.Join_cache.e_build_work;
                spend entry.Join_cache.e_seal_work;
                (* [retire_inner:false]: the cached row array is shared
                   and must never enter the scratch pool. *)
                hash ~retire_inner:false ~prebuilt:entry.Join_cache.e_table ib
            | None ->
                (* A miss publishes the stored build side itself, exact
                   size, with its table; [retire_inner:false] keeps it
                   out of the scratch pool from then on. *)
                let ib = materialize inner in
                hash ~retire_inner:false
                  ~install:(fun ~table ~seal_work ->
                    Join_cache.install c key ~rows:ib.data ~nrows:ib.nrows
                      ~table ~scan_work:scan_rows ~build_work:ib.nrows ~seal_work)
                  ib)
        | _ -> hash (materialize inner))
  in

  (* The root pipeline ends in the aggregate sink: per slot, COUNT and
     the least non-NULL code of each projection, merged after the
     phase. MIN over codes is order-independent, so it equals a pass
     over the stored root at any worker count. *)
  let aggregate root =
    let proj = Array.of_list projections in
    let np = Array.length proj in
    let counts = Array.make nworkers 0 in
    let best = Array.init nworkers (fun _ -> Array.make np null) in
    let less v m = v <> null && (m = null || v < m) in
    let sink rels =
      let slots = layout rels in
      let pslots = Array.map (fun (rel, _) -> slot_in slots rel) proj in
      let readers = Array.map (fun (rel, col) -> column_data rel col) proj in
      fun w (b : batch) lo hi ->
        counts.(w.wslot) <- counts.(w.wslot) + (hi - lo);
        let mins = best.(w.wslot) in
        for k = 0 to np - 1 do
          let read = readers.(k) and slot = pslots.(k) in
          let m = ref mins.(k) in
          for i = lo to hi - 1 do
            let v = read (row_id b.data ((i * b.width) + slot)) in
            if less v !m then m := v
          done;
          mins.(k) <- !m
        done
    in
    ignore (pipeline root ~sink);
    let mins =
      List.mapi
        (fun k (rel, col) ->
          let code =
            Array.fold_left
              (fun m mins -> if less mins.(k) m then mins.(k) else m)
              null best
          in
          let column = Storage.Table.column (QG.relation graph rel).QG.table col in
          if code = null then Storage.Value.Null
          else
            match Storage.Column.dict column with
            | None -> Storage.Value.Int code
            | Some dict -> Storage.Value.Str (Storage.Dict.get dict code))
        projections
    in
    {
      rows = Array.fold_left ( + ) 0 counts;
      work = !work;
      runtime_ms = float_of_int !work /. Engine_config.work_units_per_ms;
      timed_out = false;
      mins;
    }
  in
  let t_exec = Obs.Trace.start () in
  match aggregate plan with
  | r ->
      Obs.Trace.span ph_exec ~t0:t_exec ~a:r.rows ~b:r.work;
      r
  | exception Timeout ->
      let r =
        {
          rows = 0;
          work = limit;
          runtime_ms = float_of_int limit /. Engine_config.work_units_per_ms;
          timed_out = true;
          mins = [];
        }
      in
      Obs.Trace.span ph_exec ~t0:t_exec ~a:0 ~b:limit;
      r
