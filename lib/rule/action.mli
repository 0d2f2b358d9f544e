(** Forwarding actions.

    The policy-level outcomes a rule can prescribe.  DIFANE additionally
    uses two infrastructure actions that never appear in user policies:
    tunnelling a cache miss to an authority switch, and the encapsulated
    forward an authority switch applies on behalf of an ingress switch. *)

type t =
  | Forward of int  (** deliver out of the network at egress switch [id] *)
  | Drop
  | Count_and_forward of int
      (** monitoring rule: bump a counter, then deliver at egress [id] *)
  | To_authority of int
      (** partition rule: tunnel to authority switch [id] (infrastructure) *)
  | Redirect_controller  (** reactive baselines: punt to the controller *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val egress : t -> int option
(** The egress switch the action delivers to, if it delivers. *)
