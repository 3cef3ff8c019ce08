(** The experiment catalog: every paper table/figure reproduction
    registered once with its canonical ID, a one-line description, and
    its render function. [jobench experiment] derives its experiment
    list from here, so an experiment added to the catalog shows up in
    [jobench experiment all] and in [--help]. *)

type entry = {
  id : string;
  doc : string;
  render : Harness.t -> string;
}

val all : entry list
(** The 13 experiments, in the paper's order. *)

val ids : string list

val registry : entry Core.Registry.t

val find : string -> (entry, Core.Registry.error) result

val find_exn : string -> entry
(** Raises [Invalid_argument] listing the valid IDs. *)
