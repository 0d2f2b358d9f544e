(* Folding the high half into the low one keeps keys that pack two ints
   (a congestion port's [from lsl 32 lor to]) spread over the buckets;
   ids below 2^32 hash to themselves. *)
include Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash (x : int) = (x lxor (x lsr 32)) land max_int
end)
