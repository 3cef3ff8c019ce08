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

(* Rows per morsel: the unit every vectorized phase is scheduled,
   staged and budget-checked in. *)
let chunk = 4096

(* Row-major tuple store for intermediate results. *)
type batch = {
  rels : int array;
  slots : int array;  (* relation index -> slot, -1 when absent *)
  width : int;
  mutable data : int array;
  mutable nrows : int;
}

let slot_of b rel =
  if rel >= Array.length b.slots || b.slots.(rel) < 0 then
    invalid_arg "Executor: relation not in batch"
  else b.slots.(rel)

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
   contract), so nothing here is locked. [wbuf] stages each claimed
   morsel's output contiguously; the caller stitches the segments back
   together in morsel-index order, which is what makes assembled batches
   independent of how many slots ran the phase. *)
type wstate = {
  wslot : int;
  mutable wbuf : int array;
  mutable wlen : int;
  wsel : int array; (* scan selection-vector scratch *)
  mutable wfill : (int array -> int -> int -> int) option;
      (* per-phase selector instance (owns mutable decode scratch) *)
  mutable wclaims : int; (* morsels claimed in the current phase *)
}

let wbuf_reserve w extra =
  let needed = w.wlen + extra in
  if needed > Array.length w.wbuf then begin
    let bigger = Array.make (max needed (2 * Array.length w.wbuf)) 0 in
    Array.blit w.wbuf 0 bigger 0 w.wlen;
    w.wbuf <- bigger
  end

let run ~db ~graph ~config ~size_est ?observe ?pool ?cache ?(projections = [])
    plan =
  let work = ref 0 in
  let limit = config.Engine_config.work_limit in
  let row_limit = config.Engine_config.row_limit in
  let spend n =
    work := !work + n;
    if !work > limit then raise Timeout
  in
  (* The work_mem stand-in: one intermediate result outgrowing the row
     budget counts as a timeout. *)
  let check_rows (b : batch) = if b.nrows > row_limit then raise Timeout in
  (* Random-access code readers (the column layer is sealed; flat columns
     compile to a plain array load, packed ones to shift/mask). *)
  let column_data rel col =
    Storage.Column.reader (Storage.Table.column (QG.relation graph rel).QG.table col)
  in

  (* Scratch pool: int arrays retired by consumed intermediate batches
     (and key/selection buffers), reused for the next intermediate. A
     bushy plan stops reallocating its working set once the first few
     joins have sized it. Arrays are never zeroed on reuse — every
     consumer writes before it reads. *)
  let scratch = ref [] in
  let pool_acquire min_len =
    let rec go acc = function
      | [] -> Array.make (max 1024 min_len) 0
      | a :: rest when Array.length a >= min_len ->
          scratch := List.rev_append acc rest;
          a
      | a :: rest -> go (a :: acc) rest
    in
    go [] !scratch
  in
  let pool_release a = if Array.length a >= 1024 then scratch := a :: !scratch in
  let retire b = pool_release b.data in

  let batch_create rels =
    let width = Array.length rels in
    (* Direct rel -> slot lookup built once per batch; [slot_of] runs per
       join-edge setup and per finish column, so no linear scans there. *)
    let max_rel = Array.fold_left max 0 rels in
    let slots = Array.make (max_rel + 1) (-1) in
    Array.iteri (fun i rel -> slots.(rel) <- i) rels;
    {
      rels;
      slots;
      width;
      data = pool_acquire (max 16 (width * 16));
      nrows = 0;
    }
  in
  let batch_reserve b extra_rows =
    let needed = (b.nrows + extra_rows) * b.width in
    if needed > Array.length b.data then begin
      let bigger = pool_acquire (max needed (2 * Array.length b.data)) in
      Array.blit b.data 0 bigger 0 (b.nrows * b.width);
      pool_release b.data;
      b.data <- bigger
    end
  in

  (* Join-key accessors per edge, preextracted into flat parallel arrays
     (slot and column data), so the per-row key loop touches no lists,
     no tuples, and no closures. *)
  let key_arrays batch side edges =
    let k = List.length edges in
    let slots = Array.make k 0 in
    let datas = Array.make k no_reader in
    List.iteri
      (fun idx (e : QG.edge) ->
        match side with
        | `Outer ->
            slots.(idx) <- slot_of batch e.QG.left;
            datas.(idx) <- column_data e.QG.left e.QG.left_col
        | `Inner ->
            slots.(idx) <- slot_of batch e.QG.right;
            datas.(idx) <- column_data e.QG.right e.QG.right_col)
      edges;
    (slots, datas)
  in
  (* Composite hash of a tuple's join-key columns; [null_key] if any is
     NULL. *)
  let tuple_key batch slots datas i =
    let base = i * batch.width in
    let h = ref 0 in
    let ok = ref true in
    for k = 0 to Array.length slots - 1 do
      let v =
        (Array.unsafe_get datas k) (batch.data.(base + Array.unsafe_get slots k))
      in
      if v = null then ok := false else h := Join_table.combine !h v
    done;
    if !ok then !h else null_key
  in
  let keys_equal outer oslots odatas i inner islots idatas j =
    let obase = i * outer.width and ibase = j * inner.width in
    let rec go k =
      if k = Array.length oslots then true
      else
        let ov = odatas.(k) outer.data.(obase + oslots.(k)) in
        let iv = idatas.(k) inner.data.(ibase + islots.(k)) in
        ov = iv && ov <> null && go (k + 1)
    in
    go 0
  in
  let emit_joined out outer i inner j =
    batch_reserve out 1;
    let base = out.nrows * out.width in
    Array.blit outer.data (i * outer.width) out.data base outer.width;
    Array.blit inner.data (j * inner.width) out.data (base + outer.width)
      inner.width;
    out.nrows <- out.nrows + 1;
    check_rows out
  in

  (* ---------------- Morsel phases ----------------

     Every vectorized phase — scan, hash-build key pass, hash probe,
     index-NL probe — carves its input rows into [chunk]-row morsels
     handed out by an atomic cursor. With a pool of at least two domains
     and at least two morsels of input, the pool's workers claim them;
     otherwise the calling domain drains the cursor alone, as slot 0, in
     morsel order. Either way each morsel stages its output in its
     slot's buffer and [staged_phase] stitches the segments back
     together in morsel-index order, so batches — and every downstream
     decision — do not depend on where the phase ran.

     Accounting: a morsel's work and emitted rows go into shared
     [Morsel.acc] totals through [charge], which compares the committed
     totals against the limits after every morsel. Sums are
     order-independent, so the budget trips on the same condition at
     any worker count. A tripped budget raises {!Timeout} (the pool
     re-raises a worker's), and the top-level handler below turns it
     into the usual timeout result. *)
  let nworkers =
    match pool with Some p -> Util.Domain_pool.size p | None -> 1
  in
  let workers =
    Array.init nworkers (fun slot ->
        {
          wslot = slot;
          wbuf = Array.make chunk 0;
          wlen = 0;
          wsel = Array.make chunk 0;
          wfill = None;
          wclaims = 0;
        })
  in
  let phase_work = Morsel.acc () in
  let phase_rows = Morsel.acc () in
  (* [!work] is only written between phases, so workers may read it. *)
  let charge wk rows =
    if !work + Morsel.add phase_work wk > limit then raise Timeout;
    if rows > 0 && Morsel.add phase_rows rows > row_limit then raise Timeout
  in
  (* Run [body w m lo hi] for every morsel [m] = rows [lo, hi) of an
     [n]-row input. *)
  let run_phase ~n body =
    Morsel.reset phase_work;
    Morsel.reset phase_rows;
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
  (* A phase whose [body w lo hi] appends output tuples to [w.wbuf] and
     returns how many it staged; they land in [out] in morsel order. *)
  let staged_phase ~n out body =
    let morsels = (n + chunk - 1) / chunk in
    let m_src = Array.make morsels 0
    and m_off = Array.make morsels 0
    and m_cnt = Array.make morsels 0 in
    run_phase ~n (fun w m lo hi ->
        m_src.(m) <- w.wslot;
        m_off.(m) <- w.wlen;
        m_cnt.(m) <- body w lo hi);
    let width = out.width in
    batch_reserve out (Array.fold_left ( + ) 0 m_cnt);
    for m = 0 to morsels - 1 do
      let cnt = m_cnt.(m) in
      if cnt > 0 then begin
        Array.blit workers.(m_src.(m)).wbuf m_off.(m) out.data
          (out.nrows * width) (cnt * width);
        out.nrows <- out.nrows + cnt
      end
    done
  in

  (* Scans fill a selection vector per morsel (one compaction pass per
     predicate atom). Each slot mints its own selector instance from a
     shared factory (dictionary bitmaps compiled once), since an
     instance owns mutable decode scratch. *)
  let scan rel =
    let relation = QG.relation graph rel in
    let table = relation.QG.table in
    let out = batch_create [| rel |] in
    let factory = Query.Predicate.selector_factory table relation.QG.preds in
    staged_phase ~n:(Storage.Table.row_count table) out (fun w lo hi ->
        let fill =
          match w.wfill with
          | Some f -> f
          | None ->
              let f = factory () in
              w.wfill <- Some f;
              f
        in
        let cnt = fill w.wsel lo hi in
        wbuf_reserve w cnt;
        Array.blit w.wsel 0 w.wbuf w.wlen cnt;
        w.wlen <- w.wlen + cnt;
        charge (hi - lo) 0;
        cnt);
    out
  in

  (* Hash-based matching shared by hash join and the nested-loop
     shortcut: returns the joined batch; [charge_hash] selects whether
     hash build/probe work is charged (the NL shortcut charges the
     quadratic pair count instead). Emitted rows are always charged, so
     materialized intermediates can never outgrow the work budget. *)
  let emit_cost = 2 in
  let hash_match ~oset ~iset ~charge_hash ~table_size ?(retire_inner = true)
      ?prebuilt ?install outer inner =
    let edges = QG.edges_between graph oset iset in
    if edges = [] then invalid_arg "Executor: cross product";
    let oslots, odatas = key_arrays outer `Outer edges in
    let islots, idatas = key_arrays inner `Inner edges in
    let jt =
      match prebuilt with
      | Some jt ->
          (* Recycled sealed table (the caller already replayed the
             build's work charges): straight to the probe phase. *)
          jt
      | None ->
          let jt =
            Join_table.create
              ~bucket_floor:config.Engine_config.hash_bucket_floor
              ~estimated_rows:table_size ~actual_rows:inner.nrows
              ~resizable:config.Engine_config.resize_hash_tables ()
          in
          (* Build, two-phase: a morsel phase computes every build row's
             key hash (1 work unit per row, NULL keys included) — disjoint
             writes into a shared buffer — then the calling domain
             appends the entries in row order, so payload numbering never
             depends on the schedule, and one seal links chains in
             canonical ascending-payload order and charges the resize
             bill. *)
          let n = inner.nrows in
          let kbuf = pool_acquire n in
          run_phase ~n (fun _w _m lo hi ->
              for j = lo to hi - 1 do
                kbuf.(j) <- tuple_key inner islots idatas j
              done;
              if charge_hash then charge (hi - lo) 0);
          for j = 0 to n - 1 do
            let h = kbuf.(j) in
            if h <> null_key then Join_table.append jt ~hash:h ~payload:j
          done;
          pool_release kbuf;
          let seal_work = Join_table.seal jt in
          if charge_hash then spend seal_work;
          (* Publish to the recycling cache while the build batch is
             still alive: the row-id copy must happen before [retire]
             returns the batch's array to the scratch pool. *)
          (match install with
          | Some f ->
              f
                ~rows:(Array.sub inner.data 0 inner.nrows)
                ~nrows:inner.nrows ~table:jt ~seal_work
          | None -> ());
          jt
    in
    let out = batch_create (Array.append outer.rels inner.rels) in
    let ow = outer.width and iw = inner.width in
    let width = out.width in
    staged_phase ~n:outer.nrows out (fun w lo hi ->
        let wk = ref 0 and emitted = ref 0 in
        for i = lo to hi - 1 do
          let h = tuple_key outer oslots odatas i in
          if h <> null_key then begin
            let pw =
              Join_table.probe jt ~hash:h ~f:(fun j ->
                  if keys_equal outer oslots odatas i inner islots idatas j
                  then begin
                    wbuf_reserve w width;
                    Array.blit outer.data (i * ow) w.wbuf w.wlen ow;
                    Array.blit inner.data (j * iw) w.wbuf (w.wlen + ow) iw;
                    w.wlen <- w.wlen + width;
                    incr emitted;
                    wk := !wk + emit_cost
                  end)
            in
            if charge_hash then wk := !wk + pw
          end
          else if charge_hash then incr wk
        done;
        charge !wk !emitted;
        !emitted);
    retire outer;
    if retire_inner then retire inner;
    out
  in

  (* Sort-merge join: sort both inputs' tuple indexes by composite key
     hash (equal keys share a hash; real equality re-checked on match),
     then merge runs pairwise. Sorting is charged n log2 n comparisons. *)
  let merge_join ~oset ~iset outer inner =
    let edges = QG.edges_between graph oset iset in
    if edges = [] then invalid_arg "Executor: cross product";
    let oslots, odatas = key_arrays outer `Outer edges in
    let islots, idatas = key_arrays inner `Inner edges in
    (* Per-row keys land in a pooled buffer; the sorted side is a
       permutation of the non-NULL row ids ordered by (key, row) —
       exactly the order the former boxed (key, row) pair sort produced,
       without building a list or allocating a tuple per row. *)
    let sort_side batch slots datas =
      let nrows = batch.nrows in
      let keys = pool_acquire (max 1 nrows) in
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
      Array.sort
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
    let out = batch_create (Array.append outer.rels inner.rels) in
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
            let oi = oidx.(a) and ij = iidx.(b) in
            if keys_equal outer oslots odatas oi inner islots idatas ij then begin
              emit_joined out outer oi inner ij;
              spend emit_cost
            end
          done
        done;
        i := !i_end;
        j := !j_end
      end
    done;
    pool_release okeys;
    pool_release ikeys;
    retire outer;
    retire inner;
    out
  in

  (* Checkpoint instrumentation: after a node's result is materialized,
     report its exact cardinality and the work spent so far. [observe]
     defaults to [None], in which case the hook is a single option match
     per plan node — no closure, no allocation. An Index_nl_join's inner
     scan is never materialized on its own, so it reports no checkpoint;
     the joined result does. Observer exceptions propagate to the caller
     (only {!Timeout} is caught below) — the re-optimization driver uses
     exactly that to abandon a doomed plan mid-flight. *)
  let checkpoint set (b : batch) =
    match observe with
    | None -> b
    | Some f ->
        f set ~rows:b.nrows ~work:!work;
        b
  in

  let rec eval (p : Plan.t) : batch =
    let t0 = Obs.Trace.start () in
    let b = eval_op p in
    (* Nested per-operator span: a join's interval includes its
       children's (the trace renders the tree); [a] is the node's exact
       cardinality, [b] the cumulative work when it materialized. *)
    Obs.Trace.span (phase_of p) ~t0 ~a:b.nrows ~b:!work;
    checkpoint p.Plan.set b

  and eval_op (p : Plan.t) : batch =
    match p.Plan.op with
    | Plan.Scan rel -> scan rel
    | Plan.Join { algo = Plan.Merge_join; outer = op; inner = ip } ->
        let ob = eval op in
        let ib = eval ip in
        merge_join ~oset:op.Plan.set ~iset:ip.Plan.set ob ib
    | Plan.Join { algo = Plan.Hash_join; outer = op; inner = ip } -> (
        (* The hash table is sized from the optimizer's estimate of the
           build (inner) side — the 9.4 pathology under underestimates. *)
        let table_size = size_est ip.Plan.set in
        (* Recycling applies only when the build side is a bare
           base-relation scan: then the sealed table plus the surviving
           row set is a pure function of (table, predicate, key columns,
           encodings, bucket sizing), all captured by the cache key. *)
        let cacheable =
          match (cache, ip.Plan.op) with
          | Some c, Plan.Scan rel ->
              let relation = QG.relation graph rel in
              let table = relation.QG.table in
              let edges = QG.edges_between graph op.Plan.set ip.Plan.set in
              let cols = List.map (fun (e : QG.edge) -> e.QG.right_col) edges in
              let key =
                Join_cache.make_key
                  ~table:(Storage.Table.name table)
                  ~table_rows:(Storage.Table.row_count table)
                  ~pred:(Join_cache.pred_digest relation.QG.preds)
                  ~cols
                  ~encoding:(Join_cache.encoding_fingerprint table)
                  ~buckets:
                    (Join_table.planned_buckets
                       ~bucket_floor:config.Engine_config.hash_bucket_floor
                       ~estimated_rows:table_size ())
                  ~resizable:config.Engine_config.resize_hash_tables
              in
              Some (c, key, rel, Storage.Table.row_count table)
          | _ -> None
        in
        match cacheable with
        | None ->
            let ob = eval op in
            let ib = eval ip in
            hash_match ~oset:op.Plan.set ~iset:ip.Plan.set ~charge_hash:true
              ~table_size ob ib
        | Some (c, key, rel, scan_rows) -> (
            match Join_cache.find c key with
            | Some entry ->
                (* Hit: skip the build-side scan and the hash build, but
                   replay their exact simulated-work charges and fire the
                   inner scan's checkpoint where the uncached path would
                   have — results, work, observer sequences, and timeout
                   behaviour stay byte-identical; only wall-clock drops. *)
                let ob = eval op in
                spend entry.Join_cache.e_scan_work;
                let slots = Array.make (rel + 1) (-1) in
                slots.(rel) <- 0;
                let ib =
                  {
                    rels = [| rel |];
                    slots;
                    width = 1;
                    data = entry.Join_cache.e_rows;
                    nrows = entry.Join_cache.e_nrows;
                  }
                in
                ignore (checkpoint ip.Plan.set ib);
                spend entry.Join_cache.e_build_work;
                spend entry.Join_cache.e_seal_work;
                (* [retire_inner:false]: the cached row array is shared
                   and must never enter the scratch pool. *)
                hash_match ~oset:op.Plan.set ~iset:ip.Plan.set
                  ~charge_hash:true ~table_size ~retire_inner:false
                  ~prebuilt:entry.Join_cache.e_table ob ib
            | None ->
                let ob = eval op in
                let ib = eval ip in
                hash_match ~oset:op.Plan.set ~iset:ip.Plan.set
                  ~charge_hash:true ~table_size
                  ~install:(fun ~rows ~nrows ~table ~seal_work ->
                    Join_cache.install c key ~rows ~nrows ~table
                      ~scan_work:scan_rows ~build_work:nrows ~seal_work)
                  ob ib))
    | Plan.Join { algo = Plan.Nl_join; outer = op; inner = ip } ->
        if not config.Engine_config.allow_nl_join then
          invalid_arg "Executor: nested-loop join disabled in this configuration";
        let ob = eval op in
        let ib = eval ip in
        (* Charge the quadratic pair count up front; compute the (equal)
           result hash-based so answers stay exact. *)
        spend (ob.nrows * ib.nrows);
        hash_match ~oset:op.Plan.set ~iset:ip.Plan.set ~charge_hash:false
          ~table_size:(float_of_int (max 16 ib.nrows))
          ob ib
    | Plan.Join { algo = Plan.Index_nl_join; outer = op; inner = ip } -> (
        match ip.Plan.op with
        | Plan.Join _ -> invalid_arg "Executor: index-NL inner must be base"
        | Plan.Scan inner_rel ->
            let ob = eval op in
            index_nl_join ~oset:op.Plan.set ob inner_rel)

  and index_nl_join ~oset ob inner_rel =
    let relation = QG.relation graph inner_rel in
    let table = relation.QG.table in
    let table_name = Storage.Table.name table in
    let pred = Query.Predicate.compile table relation.QG.preds in
    let edges = QG.edges_between graph oset (Bitset.singleton inner_rel) in
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
    let outer_key_slot = slot_of ob indexed_edge.QG.left in
    let outer_key_data = column_data indexed_edge.QG.left indexed_edge.QG.left_col in
    (* Post-filter edges, preextracted like the join keys above. *)
    let nf = List.length other_edges in
    let f_oslots = Array.make nf 0 in
    let f_odatas = Array.make nf no_reader in
    let f_idatas = Array.make nf no_reader in
    List.iteri
      (fun k (e : QG.edge) ->
        f_oslots.(k) <- slot_of ob e.QG.left;
        f_odatas.(k) <- column_data e.QG.left e.QG.left_col;
        f_idatas.(k) <- column_data e.QG.right e.QG.right_col)
      other_edges;
    let filters_pass i inner_row =
      let base = i * ob.width in
      let rec go k =
        if k = nf then true
        else
          let ov = f_odatas.(k) ob.data.(base + f_oslots.(k)) in
          ov <> null && ov = f_idatas.(k) inner_row && go (k + 1)
      in
      go 0
    in
    let out = batch_create (Array.append ob.rels [| inner_rel |]) in
    (* Index lookups are read-only (the database's index cache is a
       copy-on-write snapshot) and the compiled predicate's only mutable
       state is validated-before-use reader caches, so the probe runs as
       a morsel phase like a hash probe. *)
    let width = out.width in
    staged_phase ~n:ob.nrows out (fun w lo hi ->
        let wk = ref 0 and emitted = ref 0 in
        for i = lo to hi - 1 do
          wk := !wk + 4; (* index descent: random access *)
          let key = outer_key_data ob.data.((i * ob.width) + outer_key_slot) in
          if key <> null then begin
            let matches = Storage.Index.lookup index key in
            wk := !wk + Array.length matches;
            Array.iter
              (fun inner_row ->
                if pred inner_row && filters_pass i inner_row then begin
                  wbuf_reserve w width;
                  Array.blit ob.data (i * ob.width) w.wbuf w.wlen ob.width;
                  w.wbuf.(w.wlen + ob.width) <- inner_row;
                  w.wlen <- w.wlen + width;
                  incr emitted;
                  incr wk
                end)
              matches
          end
        done;
        charge !wk !emitted;
        !emitted);
    retire ob;
    out
  in

  let finish batch =
    let mins =
      List.map
        (fun (rel, col) ->
          let slot = slot_of batch rel in
          let column = Storage.Table.column (QG.relation graph rel).QG.table col in
          let read = Storage.Column.reader column in
          let best = ref None in
          for i = 0 to batch.nrows - 1 do
            let row = batch.data.((i * batch.width) + slot) in
            let v = read row in
            if v <> null then
              match !best with
              | Some b when b <= v -> ()
              | _ -> best := Some v
          done;
          match !best with
          | None -> Storage.Value.Null
          | Some code -> (
              match Storage.Column.dict column with
              | None -> Storage.Value.Int code
              | Some dict -> Storage.Value.Str (Storage.Dict.get dict code)))
        projections
    in
    {
      rows = batch.nrows;
      work = !work;
      runtime_ms = float_of_int !work /. Engine_config.work_units_per_ms;
      timed_out = false;
      mins;
    }
  in
  let t_exec = Obs.Trace.start () in
  match finish (eval plan) with
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
