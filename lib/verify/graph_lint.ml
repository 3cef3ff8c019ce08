(* Well-formedness lint for bound query graphs, run at workload load
   time. [Query_graph.create] already rejects the fatal cases (empty,
   disconnected, out-of-range edges); the lint re-derives those
   invariants independently — it must not trust the constructor it
   audits — and adds the diagnosable ones:

   - connectedness of the full relation set (a disconnected graph
     forces a cross product on every enumerator);
   - dangling aliases: in a multi-relation query, a relation with no
     incident join edge can only ever be cross-producted in;
   - degenerate edges: self joins of an alias with itself, and
     duplicate edges relating the same column pair twice (they distort
     every compositional estimator, which multiplies one selectivity
     per edge);
   - column sanity: edge endpoints must name existing columns of their
     relation's table;
   - PK labelling: an edge marked PK-on-one-side must actually touch
     that table's primary-key column — estimators and the index-NL
     planner both trust the label;
   - duplicate filter predicates: the same atom bound twice on one
     alias makes every compositional estimator apply its selectivity
     twice (predicate atoms are pure data, so structural equality is
     exact);
   - bound-but-unreferenced relations: an alias with neither a join
     edge nor a filter predicate contributes only a cross product times
     its full cardinality — almost certainly a binder or workload
     bug. *)

module Bitset = Util.Bitset
module QG = Query.Query_graph

let pass = "query-graph-lint"

let check ?subject graph =
  let subject = Option.value subject ~default:(QG.name graph) in
  let c = Violation.collector ~pass ~subject in
  let n = QG.n_relations graph in
  let edges = QG.edges graph in
  Violation.check c
    (QG.is_connected graph (QG.full_set graph))
    "query graph is disconnected: every plan needs a cross product";
  Array.iteri
    (fun i (r : QG.relation) ->
      Violation.check c (r.QG.idx = i)
        "relation %s stored at index %d but declares idx %d" r.QG.alias i
        r.QG.idx;
      if n > 1 then begin
        Violation.check c
          (not (Bitset.is_empty (QG.adjacency graph i)))
          "dangling alias %s: no join edge touches it" r.QG.alias;
        Violation.check c
          ((not (Bitset.is_empty (QG.adjacency graph i)))
          || r.QG.preds <> [])
          "relation %s is bound but never referenced: no join edge and no \
           filter predicate"
          r.QG.alias
      end;
      let seen_atoms = Hashtbl.create 8 in
      List.iter
        (fun atom ->
          Violation.check c
            (not (Hashtbl.mem seen_atoms atom))
            "duplicate filter predicate on %s: %a" r.QG.alias
            (fun () -> Format.asprintf "%a" (Query.Predicate.pp_atom r.QG.table))
            atom;
          Hashtbl.replace seen_atoms atom ())
        r.QG.preds)
    (QG.relations graph);
  let seen_edges = Hashtbl.create (List.length edges) in
  List.iter
    (fun (e : QG.edge) ->
      let in_range r = r >= 0 && r < n in
      Violation.check c
        (in_range e.QG.left && in_range e.QG.right)
        "edge endpoints %d–%d out of range (query has %d relations)" e.QG.left
        e.QG.right n;
      Violation.check c (e.QG.left <> e.QG.right)
        "self edge on relation %d: an alias cannot join itself" e.QG.left;
      if in_range e.QG.left && in_range e.QG.right then begin
        let describe r col =
          let rel = QG.relation graph r in
          (rel, Printf.sprintf "%s.col%d" rel.QG.alias col)
        in
        let check_col r col =
          let rel, label = describe r col in
          let count = Storage.Table.column_count rel.QG.table in
          Violation.check c
            (col >= 0 && col < count)
            "edge column %s out of range (table %s has %d columns)" label
            (Storage.Table.name rel.QG.table)
            count
        in
        check_col e.QG.left e.QG.left_col;
        check_col e.QG.right e.QG.right_col;
        let check_pk r col =
          let rel, label = describe r col in
          match Storage.Table.pk rel.QG.table with
          | Some pk ->
              Violation.check c (pk = col)
                "edge marked PK on %s but table %s's primary key is column %d"
                label
                (Storage.Table.name rel.QG.table)
                pk
          | None ->
              Violation.check c false
                "edge marked PK on %s but table %s declares no primary key"
                label
                (Storage.Table.name rel.QG.table)
        in
        (match e.QG.pk_side with
        | Some `Left -> check_pk e.QG.left e.QG.left_col
        | Some `Right -> check_pk e.QG.right e.QG.right_col
        | None -> ());
        (* Canonical key: the same column pair, orientation-independent. *)
        let a = (e.QG.left, e.QG.left_col) and b = (e.QG.right, e.QG.right_col) in
        let key = if a <= b then (a, b) else (b, a) in
        Violation.check c
          (not (Hashtbl.mem seen_edges key))
          "duplicate edge between relation %d.col%d and relation %d.col%d"
          e.QG.left e.QG.left_col e.QG.right e.QG.right_col;
        Hashtbl.replace seen_edges key ()
      end)
    edges;
  Violation.result c
