(** Xen-style credit scheduler.

    Proportional-share with work conservation and I/O boost:

    - Every accounting period, each registered vCPU receives credits
      proportional to its weight (the whole period's cycles divided by
      total weight); credits are capped at two periods' worth so idle
      vCPUs cannot hoard.
    - Running debits credits one-for-one with consumed cycles.  vCPUs
      with positive credits are UNDER, others OVER; UNDER always runs
      before OVER, so shares converge to the weight ratio, while OVER
      keeps the machine work-conserving when someone is otherwise idle.
    - A vCPU woken by I/O enters the BOOST state and preempts in front
      of UNDER once, keeping latency-sensitive guests responsive without
      distorting long-run shares.
    - A nonzero {!Vcpu.t.cap} is a hard, non-work-conserving ceiling:
      once a vCPU has consumed cap% of a period it is parked until the
      next refill, even if the host is otherwise idle. *)

val create : ?slice:int -> unit -> Scheduler.t
(** Default 100k-cycle slice; the accounting period is fixed at 3M
    cycles. *)
