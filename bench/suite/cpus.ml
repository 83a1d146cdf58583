(* Where the load driver and the process under test run.

   With two or more CPUs the driver takes the first one and the server
   the last one, for the measured phase only: on this repository's
   2-vCPU machines the two otherwise take turns on both CPUs, the
   driver's sends wait behind server threads it has just woken, and the
   latency spread between runs triples.  With one CPU nothing is pinned
   and the driver sleeps between sends instead of spinning. *)

external allowed_cpus : unit -> int array = "bm_allowed_cpus"
external set_cpus : int array -> bool = "bm_set_cpus"

let all = allowed_cpus ()
let split = Array.length all >= 2

(* Every thread of the calling process, and those it starts later. *)
let pin_driver () = if split then ignore (set_cpus [| all.(0) |])
let pin_under_test () = if split then ignore (set_cpus [| all.(Array.length all - 1) |])
let release () = if split then ignore (set_cpus all)
