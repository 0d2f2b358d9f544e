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

val submit_packed : t -> Engine.kind -> int -> bool
(** Like {!submit}, but the continuation is a packed engine event:
    at service completion the handler registered for the kind is invoked
    (synchronously) with the int argument.  Allocation-free; the F-TPUT
    bench kernel times it.  {!Flowsim} submits closures. *)

val rejected : t -> int
val completed : t -> int
