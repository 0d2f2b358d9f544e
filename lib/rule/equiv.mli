(** Exact semantic comparison of classifiers.

    Two classifiers are equivalent when every header receives the same
    action (including "no rule matches").  The check is exact — region
    algebra over the full flowspace, no sampling — which is what makes it
    usable as the oracle for DIFANE's correctness claims: the union of a
    deployment's partition tables must be equivalent to the original
    policy, shadow elimination must preserve equivalence, and so on.

    Cost grows with rule count and overlap structure (effective regions
    are computed by repeated subtraction); intended for policies up to a
    few hundred rules, i.e. tests and verification passes, not the data
    plane. *)

val decision_region : Classifier.t -> Action.t -> Region.t
(** All headers the classifier maps to exactly this action. *)

val equivalent : Classifier.t -> Classifier.t -> bool
(** Same schema and same header→action function.  Tables equal rule for
    rule ({!Rule.equal}) answer at once; any other pair pays the region
    algebra, which on a whole 100-rule ACL takes seconds.
    @raise Invalid_argument on schema mismatch. *)

val counterexample : Classifier.t -> Classifier.t -> Header.t option
(** A witness header on which the two classifiers disagree; [None] iff
    {!equivalent}. *)

val agree_on : Classifier.t -> Classifier.t -> Pred.t -> bool
(** Equivalence restricted to one region of the flowspace — the per-
    partition correctness condition (a clipped authority table only has
    to agree with the policy inside its own region). *)
