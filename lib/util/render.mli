(** Plain-text rendering of the paper's tables and figures.

    Every reproduced table prints as an aligned ASCII table and every
    figure as an ASCII chart (log-scale boxplot strips for Figure 3-style
    plots, bar histograms for Figure 6/7-style plots), so the whole
    evaluation is readable straight from [jobench experiment all]. *)

val table :
  ?title:string -> header:string list -> string list list -> string
(** Aligned table with a header row and one line per data row. *)

val bar_chart :
  ?title:string -> ?width:int -> (string * float) list -> string
(** Horizontal bar per labeled value, scaled to the maximum. *)

val log_boxplot_rows :
  ?title:string ->
  lo:float ->
  hi:float ->
  ?width:int ->
  (string * Stat.boxplot option) list ->
  string
(** One row per label, drawing 5/25/50/75/95 percentiles on a log10 axis
    from [lo] to [hi]. [None] rows render as absent (no data). Markers:
    ['-'] whisker span (p5..p95), ['#'] box (p25..p75), ['|'] median. *)

val float_cell : float -> string
(** Compact numeric formatting: 2 significant decimals under 100, integers
    above, scientific beyond 10^6. *)

val percent_cell : float -> string
(** Renders 0.253 as ["25%"] (nearest percent, with one decimal under
    10%). *)
