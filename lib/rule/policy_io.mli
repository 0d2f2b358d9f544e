(** Policy files: a self-contained text format for classifiers.

    Lets operators author and version policies outside the code, and lets
    the CLI deploy them — the file embeds its schema, so a loaded policy
    can never be misinterpreted against the wrong header layout.

    {v
    # difane-policy v1
    # schema: src_ip/32,dst_ip/32
    # <priority> <field>=<ternary>[,<field>=<ternary>] <action>
    40  src_ip=00001010xxxxxxxxxxxxxxxxxxxxxxxx  drop
    10  *                                         fwd:3
    v}

    Field values accept the full {!Ternary.of_value_string} syntax:
    ternary bit strings ([0]/[1]/[x], ['_'] separators), IPv4 CIDR
    notation on 32-bit fields ([10.0.0.0/24]), bare decimal integers
    ([80]), and [*].  Omitted fields are wildcards; [*] alone is the
    match-anything predicate.  Actions: [drop], [fwd:N], [count_fwd:N].
    Priorities are integers in the int32 range, negative ones included.
    Rule ids are assigned in file order; equal priorities keep file order
    (first wins). *)

val to_string : Classifier.t -> string
(** @raise Invalid_argument if the classifier contains infrastructure
    actions (tunnel/controller), which have no place in a policy file. *)

val of_string : string -> (Classifier.t, string) result
(** Parse a policy, reconstructing the schema from the header.  Errors
    carry line numbers. *)

val save : string -> Classifier.t -> unit
val load : string -> (Classifier.t, string) result
