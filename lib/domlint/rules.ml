(* The per-file domain-safety rules, each a syntactic pass over the
   Parsetree. Everything reports through {!Verify.Violation} so source
   findings share the severity/reporting format of the plan sanitizers.

   R1  module-toplevel mutable state ([ref], [Hashtbl.create], array
       literals/constructors, records with mutable fields) must be
       wrapped in a recognized domain-safe container ([Atomic], [Mutex],
       [Condition], [Util.Once], [Util.Shard_map], [Util.Domain_pool])
       or carry a suppression. Function bindings are exempt — state
       created inside a function body is per-call. [let () = ...] and
       [let _ = ...] initializers are exempt: nothing they create can be
       named from outside.
   R2  no [lazy] / [Lazy.*] outside lib/util/once.ml (Lazy is
       domain-unsafe under OCaml 5: concurrent forcing raises
       [Undefined]).
   R3  no global [Random.*] outside lib/util/prng.ml (shared global
       state breaks deterministic -j N replay).
   R5  no [Domain.spawn] outside lib/util/domain_pool.ml (domains are a
       bounded resource owned by the pool).
   R6  no [Atomic.fetch_and_add] — the work-distribution primitive —
       outside lib/util/domain_pool.ml and lib/exec/morsel.ml: shared
       mutable scheduler state belongs to the pool and the morsel
       scheduler. Monotone telemetry counters elsewhere must carry an
       explicit allowlist entry stating why they are not work
       distribution.
   R7  serving-session bookkeeping (toplevel bindings or mutable record
       fields whose names speak the serving vocabulary — session, conn,
       admission, inflight, lru) is confined to lib/serve/ and the
       join-build recycling cache in lib/exec/join_cache.ml. Even
       individually synchronized state counts: the point is confinement
       — one layer owns admission and eviction, so its invariants can
       be audited in one place.
   R8  observability state (toplevel bindings or mutable record fields
       whose names speak the telemetry vocabulary — metric, span,
       trace, telemetry) is confined to lib/obs/. Bindings that
       register cells through the Obs API are sanctioned: the state
       they name already lives in the obs registry. Same rationale as
       R7 — one layer owns buffers and cells, so the flush/reset
       discipline can be audited in one place. *)

module Violation = Verify.Violation

type finding = {
  line : int;  (** the offending construct *)
  bind_line : int;  (** the enclosing toplevel binding ([line] if none) *)
  symbol : string;  (** enclosing binding name, or "" *)
  msg : string;
}

type rule_result = {
  checks : int;
  kept : Violation.t list;
  suppressed : int;
}

(* Filter findings through inline annotations and the allowlist, then
   render the survivors as violations. *)
let resolve ~allow ~(file : Source.t) ~rule ~pass ~checks findings =
  let suppressed = ref 0 in
  let kept =
    List.filter_map
      (fun f ->
        let covered =
          List.exists
            (fun ann ->
              Suppress.annotation_covers ann ~rule ~line:f.line
                ~bind_line:f.bind_line)
            file.Source.annotations
          || Suppress.allow_matches allow ~rule ~path:file.Source.rel
               ~symbol:f.symbol
        in
        if covered then begin
          incr suppressed;
          None
        end
        else
          Some
            {
              Violation.pass;
              subject = Printf.sprintf "%s:%d" file.Source.rel f.line;
              message = f.msg;
            })
      findings
  in
  { checks; kept; suppressed = !suppressed }

(* ------------------------------------------------------------------ *)
(* Longident helpers                                                   *)

let flatten lid = Longident.flatten lid

(* "Util.Shard_map.find_or_add" -> module "Shard_map", value
   "find_or_add". Library wrapping means the same function is reachable
   under several prefixes; the last module component is the stable
   part. *)
let split_qualified lid =
  match List.rev (flatten lid) with
  | value :: md :: _ -> Some (md, value)
  | _ -> None

let mentions_module lid name =
  match List.rev (flatten lid) with
  | _value :: mods -> List.mem name mods
  | [] -> false

(* ------------------------------------------------------------------ *)
(* Structure traversal shared by the rules and the lock-graph pass      *)

(* Toplevel value bindings, recursing into [module M = struct ... end]
   (their items are just as much module state). *)
let rec toplevel_bindings (items : Parsetree.structure) =
  List.concat_map
    (fun (item : Parsetree.structure_item) ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) -> vbs
      | Pstr_module { pmb_expr; _ } -> module_bindings pmb_expr
      | Pstr_recmodule mbs ->
          List.concat_map (fun (mb : Parsetree.module_binding) ->
              module_bindings mb.pmb_expr) mbs
      | _ -> [])
    items

and module_bindings (me : Parsetree.module_expr) =
  match me.pmod_desc with
  | Pmod_structure items -> toplevel_bindings items
  | Pmod_constraint (me, _) | Pmod_functor (_, me) -> module_bindings me
  | _ -> []

let binding_name (vb : Parsetree.value_binding) =
  let rec of_pat (p : Parsetree.pattern) =
    match p.ppat_desc with
    | Ppat_var { txt; _ } -> Some txt
    | Ppat_constraint (p, _) -> of_pat p
    | _ -> None
  in
  of_pat vb.pvb_pat

(* Global pass: every mutable record-field name declared anywhere in the
   scanned tree. A toplevel record literal touching one of these is
   shared mutable state no matter which module declared the type. *)
let collect_mutable_fields files =
  let fields = Hashtbl.create 64 in
  let rec scan_items items =
    List.iter
      (fun (item : Parsetree.structure_item) ->
        match item.pstr_desc with
        | Pstr_type (_, decls) ->
            List.iter
              (fun (d : Parsetree.type_declaration) ->
                match d.ptype_kind with
                | Ptype_record labels ->
                    List.iter
                      (fun (l : Parsetree.label_declaration) ->
                        if l.pld_mutable = Mutable then
                          Hashtbl.replace fields l.pld_name.txt ())
                      labels
                | _ -> ())
              decls
        | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure s; _ }; _ } ->
            scan_items s
        | _ -> ())
      items
  in
  List.iter (fun (f : Source.t) -> scan_items f.Source.ast) files;
  fields

(* ------------------------------------------------------------------ *)
(* R1: toplevel mutable state                                          *)

let r1_pass = "domlint/R1-toplevel-mutable-state"

(* Wrappers that make shared state domain-safe by construction; their
   subtrees are not scanned further. *)
let safe_wrapper_modules =
  [ "Atomic"; "Mutex"; "Condition"; "Semaphore"; "Once"; "Shard_map";
    "Domain_pool"; "DLS" ]

(* Constructors of bare mutable containers. *)
let mutable_constructors =
  [
    ("Hashtbl", [ "create"; "of_seq"; "copy" ]);
    ("Buffer", [ "create" ]);
    ("Queue", [ "create"; "of_seq"; "copy" ]);
    ("Stack", [ "create"; "of_seq"; "copy" ]);
    ("Bytes", [ "create"; "make"; "init"; "of_string"; "copy"; "sub" ]);
    ( "Array",
      [
        "make"; "create_float"; "init"; "make_matrix"; "of_list"; "of_seq";
        "copy"; "append"; "concat"; "sub"; "map"; "mapi";
      ] );
    ("Weak", [ "create" ]);
  ]

let constructs_mutable md fn =
  List.exists
    (fun (m, fns) -> String.equal m md && List.mem fn fns)
    mutable_constructors

let is_function_body (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ -> true
  | _ -> false

(* Call [scan_binding ~bind_line ~symbol rhs] on every named toplevel
   binding that is not a function — the state evaluated once at module
   initialization and shared by every domain — and return how many.
   [let () = ...] and [let _ = ...] are skipped: nothing they create can
   be named from outside. *)
let iter_state_bindings (file : Source.t) scan_binding =
  List.fold_left
    (fun n (vb : Parsetree.value_binding) ->
      match binding_name vb with
      | Some symbol when not (is_function_body vb.pvb_expr) ->
          scan_binding ~bind_line:(Source.line_of vb.pvb_loc) ~symbol
            vb.pvb_expr;
          n + 1
      | _ -> n)
    0
    (toplevel_bindings file.Source.ast)

(* Visit [e]'s immediate children with [walk], reusing the iterator's
   knowledge of the grammar so new syntax can't be skipped. *)
let descend walk e =
  let it =
    { Ast_iterator.default_iterator with expr = (fun _ child -> walk child) }
  in
  Ast_iterator.default_iterator.expr it e

let check_r1 ~allow ~mutable_fields (file : Source.t) =
  let findings = ref [] in
  let add ~line ~bind_line ~symbol msg =
    findings := { line; bind_line; symbol; msg } :: !findings
  in
  let scan_binding ~bind_line ~symbol (rhs : Parsetree.expression) =
    (* Walk the initializer, but not into function bodies: state created
       per call is local. Everything found here is evaluated once at
       module initialization and shared by every domain. *)
    let rec walk (e : Parsetree.expression) =
      let line = Source.line_of e.pexp_loc in
      match e.pexp_desc with
      | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ -> ()
      | Pexp_array _ ->
          add ~line ~bind_line ~symbol
            (Printf.sprintf
               "toplevel binding '%s' holds a bare array: wrap it in Atomic \
                or a guarded container, or suppress with a domlint annotation"
               symbol)
      | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
          match split_qualified txt with
          | Some (md, _) when List.mem md safe_wrapper_modules ->
              () (* wrapped: presumed intentional and guarded *)
          | Some (md, fn) when constructs_mutable md fn ->
              add ~line ~bind_line ~symbol
                (Printf.sprintf
                   "toplevel binding '%s' creates a bare %s.%s: wrap it in \
                    Atomic/Mutex/Util.Shard_map/Util.Once or suppress with a \
                    domlint annotation"
                   symbol md fn)
          | _ -> (
              match flatten txt with
              | [ "ref" ] ->
                  add ~line ~bind_line ~symbol
                    (Printf.sprintf
                       "toplevel binding '%s' is a bare ref: use Atomic.make \
                        (or guard it and annotate why it is safe)"
                       symbol)
              | _ -> List.iter (fun (_, a) -> walk a) args))
      | Pexp_record (fields, base) ->
          List.iter
            (fun (({ txt; _ } : Longident.t Location.loc), value) ->
              (match List.rev (flatten txt) with
              | fname :: _ when Hashtbl.mem mutable_fields fname ->
                  add ~line ~bind_line ~symbol
                    (Printf.sprintf
                       "toplevel binding '%s' builds a record with mutable \
                        field '%s': shared unsynchronized state"
                       symbol fname)
              | _ -> ());
              walk value)
            fields;
          Option.iter walk base
      | _ -> descend walk e
    in
    walk rhs
  in
  let checks = iter_state_bindings file scan_binding in
  resolve ~allow ~file ~rule:"R1" ~pass:r1_pass ~checks:(max 1 checks)
    (List.rev !findings)

(* ------------------------------------------------------------------ *)
(* R2/R3/R5/R6: identifiers forbidden outside their owner modules       *)

type forbidden_ident =
  | Module of string  (** the module itself, or anything reached through it *)
  | Value of string * string  (** [M.v], under any library prefix *)

type owned_ident = {
  rule : string;
  pass : string;
  owners : string list;  (** path suffixes of the files that may use it *)
  ident : forbidden_ident;
  message : string;
  extra : Parsetree.expression -> string option;
      (** a construct flagged besides the identifier, with its message *)
}

let no_extra _ = None

let r2 =
  {
    rule = "R2";
    pass = "domlint/R2-lazy";
    owners = [ "lib/util/once.ml" ];
    ident = Module "Lazy";
    message = "Lazy.* use outside lib/util/once.ml: use Util.Once instead";
    extra =
      (fun e ->
        match e.pexp_desc with
        | Pexp_lazy _ ->
            Some
              "lazy expression: Lazy is domain-unsafe under OCaml 5 \
               (concurrent forcing raises Undefined); use Util.Once"
        | _ -> None);
  }

let r3 =
  {
    rule = "R3";
    pass = "domlint/R3-global-random";
    owners = [ "lib/util/prng.ml" ];
    ident = Module "Random";
    message =
      "global Random.* outside lib/util/prng.ml: shared PRNG state breaks \
       deterministic -j N replay; thread a Util.Prng.t";
    extra = no_extra;
  }

let r5 =
  {
    rule = "R5";
    pass = "domlint/R5-domain-spawn";
    owners = [ "lib/util/domain_pool.ml" ];
    ident = Value ("Domain", "spawn");
    message =
      "Domain.spawn outside lib/util/domain_pool.ml: domains are a bounded \
       resource; go through Util.Domain_pool";
    extra = no_extra;
  }

let r6 =
  {
    rule = "R6";
    pass = "domlint/R6-scheduler-state";
    owners = [ "lib/util/domain_pool.ml"; "lib/exec/morsel.ml" ];
    ident = Value ("Atomic", "fetch_and_add");
    message =
      "Atomic.fetch_and_add outside lib/util/domain_pool.ml and \
       lib/exec/morsel.ml: shared scheduler state belongs to the pool or the \
       morsel scheduler; a telemetry counter needs an allowlist entry saying \
       why it is not work distribution";
    extra = no_extra;
  }

let forbids ident lid =
  match (ident, List.rev (flatten lid)) with
  | Module m, _ -> mentions_module lid m || flatten lid = [ m ]
  | Value (m, v), v' :: m' :: _ -> String.equal v v' && String.equal m m'
  | Value _, _ -> false

let exempt file suffixes =
  List.exists
    (fun s -> Suppress.path_matches ~pattern:s file.Source.rel)
    suffixes

(* Walk every expression (and module expression) in the file. *)
let iter_idents (file : Source.t) ~on_expr ~on_lid =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it (e : Parsetree.expression) ->
          on_expr e;
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } -> on_lid e.pexp_loc txt
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
      module_expr =
        (fun it (me : Parsetree.module_expr) ->
          (match me.pmod_desc with
          | Pmod_ident { txt; _ } -> on_lid me.pmod_loc txt
          | _ -> ());
          Ast_iterator.default_iterator.module_expr it me);
    }
  in
  it.structure it file.Source.ast

let check_owned ~allow spec (file : Source.t) =
  if exempt file spec.owners then { checks = 1; kept = []; suppressed = 0 }
  else begin
    let findings = ref [] in
    let add (loc : Location.t) msg =
      let line = Source.line_of loc in
      findings := { line; bind_line = line; symbol = ""; msg } :: !findings
    in
    iter_idents file
      ~on_expr:(fun e -> Option.iter (add e.pexp_loc) (spec.extra e))
      ~on_lid:(fun loc lid -> if forbids spec.ident lid then add loc spec.message);
    resolve ~allow ~file ~rule:spec.rule ~pass:spec.pass
      ~checks:(1 + List.length !findings)
      (List.rev !findings)
  end

(* ------------------------------------------------------------------ *)
(* R7/R8: vocabulary-named state confined to an owner layer            *)

(* Session/connection bookkeeping vocabulary. A toplevel binding with
   one of these in its name that creates state — even individually
   synchronized state like an [Atomic] — is serving infrastructure
   leaking out of the serving layer, where it would dodge the admission
   and eviction discipline lib/serve maintains. *)
let r7_vocab =
  [ "session"; "conn"; "admission"; "inflight"; "in_flight"; "lru" ]

(* Telemetry vocabulary. "histogram" is deliberately absent — it names
   a statistics-domain concept (lib/dbstats/histogram.ml), not just
   telemetry plumbing. *)
let r8_vocab = [ "metric"; "span"; "trace"; "telemetry" ]

type confinement = {
  c_rule : string;
  c_pass : string;
  vocab : string list;
  owner : Source.t -> bool;  (** the owning layer's files, exempt *)
  sanctioned : Longident.t -> bool;
      (** right-hand sides that may create named state anywhere *)
  state_name : string;  (** what the messages call the state *)
  hint : string;
}

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec at i =
    i + m <= n && (String.equal (String.sub s i m) sub || at (i + 1))
  in
  m > 0 && at 0

let speaks vocab s =
  let s = String.lowercase_ascii s in
  List.exists (contains_sub s) vocab

(* Owner layers are directories, and [Suppress.path_matches] is
   suffix-only, so directories need a substring containment check. *)
let r7 =
  {
    c_rule = "R7";
    c_pass = "domlint/R7-serving-state";
    vocab = r7_vocab;
    owner =
      (fun file ->
        contains_sub file.Source.rel "lib/serve/"
        || Suppress.path_matches ~pattern:"lib/exec/join_cache.ml"
             file.Source.rel);
    sanctioned = (fun _ -> false);
    state_name = "serving state";
    hint =
      "serving-session bookkeeping is confined to lib/serve/ (and the \
       join-build recycling cache in lib/exec/join_cache.ml)";
  }

(* A right-hand side that goes through the obs API
   ([Obs.Metrics.counter], [Obs.Trace.intern], ...) is sanctioned: the
   state such a binding names lives inside lib/obs's registry, which
   is exactly the confinement the rule enforces. *)
let r8 =
  {
    c_rule = "R8";
    c_pass = "domlint/R8-observability-state";
    vocab = r8_vocab;
    owner = (fun file -> contains_sub file.Source.rel "lib/obs/");
    sanctioned =
      (fun txt -> List.exists (mentions_module txt) [ "Obs"; "Metrics"; "Trace" ]);
    state_name = "observability state";
    hint =
      "observability state (span buffers, metric cells) is confined to \
       lib/obs/; register cells through Obs.Metrics / Obs.Trace instead";
  }

(* Any state-creating call, wrapped or bare: confinement is about who
   owns the state, not whether it is synchronized. *)
let creates_state txt =
  match split_qualified txt with
  | Some (md, fn) ->
      List.mem md safe_wrapper_modules || constructs_mutable md fn
  | None -> flatten txt = [ "ref" ]

let check_confined ~allow ~mutable_fields spec (file : Source.t) =
  if spec.owner file then { checks = 1; kept = []; suppressed = 0 }
  else begin
    let findings = ref [] in
    let scan_binding ~bind_line ~symbol (rhs : Parsetree.expression) =
      let named = speaks spec.vocab symbol in
      (* Same traversal discipline as R1: skip function bodies (per-call
         state is local), flag state created once at module init. *)
      let rec walk (e : Parsetree.expression) =
        let flag verb what =
          let msg =
            Printf.sprintf "toplevel binding '%s' %s %s (%s): %s" symbol verb
              spec.state_name what spec.hint
          in
          findings :=
            { line = Source.line_of e.pexp_loc; bind_line; symbol; msg }
            :: !findings
        in
        match e.pexp_desc with
        | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ -> ()
        | Pexp_array _ when named -> flag "holds" "bare array"
        | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
            if spec.sanctioned txt then ()
            else if named && creates_state txt then
              flag "holds" (String.concat "." (flatten txt))
            else List.iter (fun (_, a) -> walk a) args
        | Pexp_record (fields, base) ->
            List.iter
              (fun (({ txt; _ } : Longident.t Location.loc), value) ->
                (match List.rev (flatten txt) with
                | fname :: _
                  when Hashtbl.mem mutable_fields fname
                       && (named || speaks spec.vocab fname) ->
                    flag "builds" (Printf.sprintf "mutable field '%s'" fname)
                | _ -> ());
                walk value)
              fields;
            Option.iter walk base
        | _ -> descend walk e
      in
      walk rhs
    in
    let checks = iter_state_bindings file scan_binding in
    resolve ~allow ~file ~rule:spec.c_rule ~pass:spec.c_pass
      ~checks:(max 1 checks) (List.rev !findings)
  end

(* ------------------------------------------------------------------ *)
(* Annotation hygiene: a malformed annotation (no reason, or a typo
   after "domlint:") must not silently suppress nothing.               *)

let hygiene_pass = "domlint/annotation"

let check_annotations (file : Source.t) =
  let violations =
    List.filter_map
      (fun (ann : Suppress.annotation) ->
        if ann.Suppress.reason = None then
          Some
            {
              Violation.pass = hygiene_pass;
              subject =
                Printf.sprintf "%s:%d" file.Source.rel ann.Suppress.first_line;
              message =
                "malformed domlint annotation: expected \"domlint: safe \
                 [RN] — reason\" with a non-empty reason";
            }
        else None)
      file.Source.annotations
  in
  {
    checks = max 1 (List.length file.Source.annotations);
    kept = violations;
    suppressed = 0;
  }
