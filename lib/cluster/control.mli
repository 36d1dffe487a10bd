(** Self-healing cluster control plane.

    Runs {e on top of} {!Parallel}'s coordinator phase (the [on_round]
    hook): every decision — admission, failure detection, evacuation,
    maintenance, overload shedding — executes strictly sequentially
    while the worker domains are parked, so the whole control plane is
    byte-deterministic at any domain count.  Only the first half of the
    periodic checkpoints (image source and chunk plan, per host) runs
    back on the stripes; their commits stay sequential.
    Responsibilities:

    - {b Admission control}: first-fit-decreasing placement over a
      {!Velum_vmm.Placement.Pool} with anti-affinity groups and
      per-host headroom reservations, highest priority class first.
    - {b Failure detection}: the {!Detector} hub-and-spoke heartbeat
      protocol ({!Velum_vmm.Ha.Failover.hb_knobs}-tuned, fault-
      injectable via [cluster.hb] and spoke link sites).
    - {b Evacuation}: a declared-dead host is fenced {e first} (so a
      false positive becomes a true positive, never a VM running twice;
      [split_brain] counts any that does), then its VMs are restored from their
      last durable checkpoint (one shared content-addressed
      {!Velum_vmm.Store} holding a named stream per VM, so sibling VMs
      dedup into the same chunks)
      onto survivors — restart storms rate-limited to 2 restores per
      round, a VM whose evacuation has failed more than 3 times degraded
      to halted ([E_cluster_degraded]).
    - {b Rolling maintenance}: {!Drain} per host — cordon → bounded
      concurrent live migration (2 per round, {!Velum_vmm.Migrate},
      retries accounted, checkpoint cold-move once retries exhaust) → reboot
      outage (detector disarmed) → refill.
    - {b Graceful overload degradation}: under admission pressure the
      lowest class is rejected ([E_cluster_shed]), the middle classes
      balloon lower-priority residents down via
      {!Velum_vmm.Mem_mgr.evict} (never above half a victim's
      reservation, [E_cluster_degraded] per squeeze), and the highest
      class is never evicted — it waits.

    {!report} is the determinism artifact: control-plane state plus the
    fleet runner's canonical report, byte-identical across domain
    counts. *)

type priority = Low | Normal | High

type vm_desc = private {
  name : string;  (** unique across the workload *)
  setup : Velum_guests.Images.setup;
  prio : priority;
  group : int option;  (** anti-affinity group *)
  arrives : int;  (** admission round; [<= 0] = placed before cycle 0 *)
}

val desc :
  ?prio:priority ->
  ?group:int ->
  ?arrives:int ->
  name:string ->
  Velum_guests.Images.setup ->
  vm_desc
(** Defaults: [Normal] priority, no group, arrives at round 0. *)

type config = private {
  hosts : int;
  quantum : int64;
  rounds : int;
  seed : int64;
  faults : Velum_util.Fault.t option;
  knobs : Velum_vmm.Ha.Failover.hb_knobs;
  cap_units : int;  (** placement capacity per host, in guest frames *)
  headroom : int;  (** frames reserved per host for evacuations *)
  checkpoint_every : int;  (** rounds between durable checkpoints *)
  drains : (int * int) list;  (** [(round, host)] maintenance schedule *)
  kills : (int * int) list;  (** [(round, host)] chaos host kills *)
  workload : vm_desc list;
  trace : bool;
}

val config :
  ?quantum:int64 ->
  ?rounds:int ->
  ?seed:int64 ->
  ?faults:Velum_util.Fault.t ->
  ?knobs:Velum_vmm.Ha.Failover.hb_knobs ->
  ?headroom:int ->
  ?checkpoint_every:int ->
  ?drains:(int * int) list ->
  ?kills:(int * int) list ->
  ?trace:bool ->
  hosts:int ->
  cap_units:int ->
  workload:vm_desc list ->
  unit ->
  config
(** Defaults: quantum 50k cycles, 24 rounds, seed 0, default HA knobs,
    no headroom, checkpoint every 4 rounds, no schedules, no tracing.

    Fixed policy: at most 2 checkpoint restores start per round, and a
    VM whose evacuation fails more than 3 times is degraded to halted.
    Drains follow {!Drain}'s policy (2 migrations per round, 3 retries,
    a 2-round reboot).

    @raise Invalid_argument on inconsistent sizes, duplicate VM names,
    a VM that exceeds the admittable per-host capacity, or a kill or
    drain with a negative round or a host outside [[0, hosts)]. *)

val chaos :
  ?quantum:int64 ->
  ?rounds:int ->
  ?seed:int64 ->
  ?faults:Velum_util.Fault.t ->
  ?knobs:Velum_vmm.Ha.Failover.hb_knobs ->
  ?checkpoint_every:int ->
  ?drains:(int * int) list ->
  ?kills:(int * int) list ->
  ?vms:int ->
  ?burst:int ->
  ?burst_round:int ->
  hosts:int ->
  unit ->
  config
(** The chaos scenario [velum cluster] and E20 run: [vms] dirty-loop
    guests (0, the default, means two per host) with priorities cycling
    High, Normal, Low and the first four in one anti-affinity group,
    plus [burst] more arriving together at [burst_round] (default 0 at
    round 6).  Each host admits three guests' worth of frames and keeps
    one guest's worth of headroom.  The other arguments are
    {!config}'s. *)

type vm_state = Pending | Placed of int | Evacuating of int | Shed | Degraded

type t

type metrics = {
  availability : float;  (** up VM-rounds / (up + down) *)
  slo_violations : int;  (** down rounds + ballooned (degraded) rounds *)
  migration_bytes : int;  (** bulk bytes on the migration link *)
  evac_mttr_rounds : float;  (** mean declared-dead → running-again *)
  consolidation : float;  (** placed VMs per occupied host (E9) *)
  placed : int;
  shed : int;
  degraded : int;
  evacuated : int;  (** successful checkpoint restores *)
  fenced_alive : int;  (** false-positive declarations, fenced anyway *)
  split_brain : int;
      (** (round, VM) pairs in which the VM had two running incarnations
          on live hosts, counted at every restore or move and at the end
          of every round; 0 as long as fencing precedes every restore *)
  cold_moves : int;  (** drain fallbacks via checkpoint *)
}

type result = { control : t; report : string }

val run : ?domains:int -> config -> result
(** Initialise the fleet, admit the initial workload (FFD, priority
    first), and drive {!Parallel.run_fleet_across} with the control loop
    as the [on_round] hook.  The loop's periodic checkpoints are prepared
    on every stripe ({!Store.prepare}, each VM on its host's domain) and
    committed by the coordinator in entry order.  The report and the
    store's bytes are identical across domain counts. *)

val report : t -> string
val metrics : t -> metrics
val fleet : t -> Parallel.fleet
val detector : t -> Detector.t

val store : t -> Velum_vmm.Store.t
(** The fleet checkpoint store (every VM's stream). *)

val cluster_monitor : t -> Velum_vmm.Monitor.t
(** Carries the [E_cluster_shed] / [E_cluster_degraded] events. *)

val entry_state : t -> name:string -> vm_state option
val entry_host : t -> name:string -> int option
