(* A single invariant violation reported by an analysis pass, plus the
   accounting record every pass returns: how many individual checks ran
   and which of them failed. Passes never raise on a bad artifact — they
   report, so one run can surface every problem at once. *)

type t = {
  pass : string;  (** which analysis pass fired, e.g. "plan-sanitizer" *)
  subject : string;  (** what was being analyzed, e.g. "13d/dp/PostgreSQL" *)
  message : string;  (** human-actionable description of the violation *)
}

type result = {
  checks : int;  (** individual invariant checks evaluated *)
  violations : t list;  (** in detection order *)
}

let empty = { checks = 0; violations = [] }

let ok result = result.violations = []

let merge a b =
  { checks = a.checks + b.checks; violations = a.violations @ b.violations }

let merge_all results = List.fold_left merge empty results

let to_string v = Printf.sprintf "[%s] %s: %s" v.pass v.subject v.message

(* Accumulator used inside a pass: count every check, record failures. *)
type collector = {
  pass_name : string;
  subject_name : string;
  mutable n_checks : int;
  mutable failed : t list;
}

let collector ~pass ~subject =
  { pass_name = pass; subject_name = subject; n_checks = 0; failed = [] }

(* A passing check consumes its arguments without formatting them. *)
let check c cond fmt =
  c.n_checks <- c.n_checks + 1;
  if cond then Printf.ikfprintf ignore () fmt
  else
    Printf.ksprintf
      (fun message ->
        c.failed <- { pass = c.pass_name; subject = c.subject_name; message } :: c.failed)
      fmt

let result c = { checks = c.n_checks; violations = List.rev c.failed }

let pp_report fmt result =
  if ok result then
    Format.fprintf fmt "%d checks, 0 violations@." result.checks
  else begin
    Format.fprintf fmt "%d checks, %d violations:@." result.checks
      (List.length result.violations);
    List.iter
      (fun v -> Format.fprintf fmt "  %s@." (to_string v))
      result.violations
  end
