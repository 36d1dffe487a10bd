(** The switched virtio-net cell that [velum net] and E23 run: per host,
    a load-balancer VM fanning requests over backend VMs for open-loop
    clients, every adapter on one learning {!Velum_devices.Switch}.
    Switch port [p] is VM [p] in {!mk_vms} order (LB, backends,
    clients), MAC [0x10 + p].  A cell lives inside its host, so a fleet
    of cells is byte-identical at any domain count. *)

type shape = {
  backends : int;
  clients : int;
  requests : int;  (** per client *)
  batch : int;  (** requests staged per doorbell *)
  service : int;  (** backend service time, in spin iterations *)
}

val mk_vms : shape -> int -> Parallel.vm_spec list

type cell = {
  sw : Velum_devices.Switch.t;
  ports : Velum_devices.Link.t array;
  mutable latencies : int list;
      (** every reply's latency, client stamp to switch egress, newest
          first *)
}

val wire :
  ?faults:Velum_util.Fault.t -> shape -> cell:int -> Velum_vmm.Hypervisor.t -> cell
(** Wire a host's {!mk_vms} VMs into cell number [cell]: 200-cycle port
    links (port [p] faulted with a plan derived from seed
    [7_001 + cell*97 + p]), static MACs, the reply snoop, the switch's
    ticker and event source, and each VM's adapter. *)

val host_vnets : Velum_vmm.Hypervisor.t -> Velum_devices.Virtio_net.t list

val check_conserved : cell -> Velum_devices.Virtio_net.t list -> unit
(** Frame conservation over the given adapters — across a live
    migration, the source's, the destination's and the retired one:

    {[ sent + wire_duplicated + flood_extra
         = received + rx_dropped + rx_overflow + switch drops
           + wire_dropped + in_flight + backlog ]}

    @raise Failure on a violation, or if the switch does not balance. *)

type totals = {
  sent : int;
  received : int;
  sw_drops : int;
  wire_dropped : int;
  kicks : int;
}

val totals : (cell * Velum_devices.Virtio_net.t list) list -> totals
(** Counters summed over cells, each with its adapters. *)

val frames_per_kick : totals -> string
(** [sent / kicks] to two decimals; ["-"] before the first kick. *)

type tail = { replies : int; p50 : int; p95 : int; p99 : int; max : int }

val tail : int list -> tail
(** Reply count and nearest-rank percentiles
    ({!Velum_util.Stats.nearest_rank}) of the given latencies, so every
    percentile is a measured sample; all zero when there are none. *)

type run = {
  report : string;  (** {!Parallel.report} *)
  digest : string;  (** a ["hostN replies=… kicks=…"] line per host *)
  latencies : int list;  (** every cell's {!cell.latencies}, merged *)
  fleet : totals;
}

val run :
  ?faults:Velum_util.Fault.t ->
  ?domains:int ->
  shape ->
  hosts:int ->
  quantum:int64 ->
  rounds:int ->
  seed:int64 ->
  run
(** One cell per host under {!Parallel.run}, conservation checked on
    every host.  @raise Failure ["hostN: …"] on a violation. *)
