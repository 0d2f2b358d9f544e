(** Fixed-width text tables — the bench harness prints every reproduced
    paper table/figure series through this module so the output is
    uniform and diffable. *)

type align = Left | Right

val render : ?align:align list -> header:string list -> string list list -> string
(** Render rows under a header with a rule line; column widths fit the
    content.  Missing cells render empty; [align] defaults to [Left] for
    the first column and [Right] elsewhere. *)

val section :
  ?align:align list -> title:string -> header:string list -> string list list -> string
(** [render] under a [== title ==] banner, newline-framed. *)

val print : ?align:align list -> title:string -> header:string list -> string list list -> unit
(** [section] to stdout. *)

val fmt_pct : float -> string
(** [fmt_pct 0.873] is ["87.3%"]. *)

val fmt_si : float -> string
(** Engineering notation: ["1.5M"], ["20k"], ["350"]. *)
