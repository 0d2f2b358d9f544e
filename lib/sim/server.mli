(** A single-server FIFO service queue with bounded backlog.

    Models the two serial bottlenecks of the evaluation: the reactive
    controller's CPU (NOX) and an authority switch's flow-setup path
    (DIFANE).  Jobs are served one at a time, each taking [service_time];
    jobs arriving to a full queue are rejected — which is what saturates
    throughput past capacity in the paper's figures. *)

type t

val create : Engine.t -> service_time:float -> queue_capacity:int -> t
(** @raise Invalid_argument on nonpositive service time or negative
    capacity. *)

val submit : t -> (unit -> unit) -> bool
(** Enqueue a job; its callback runs at service completion.  Returns
    [false] (and drops the job) when the backlog is at capacity. *)

val rejected : t -> int
val completed : t -> int
