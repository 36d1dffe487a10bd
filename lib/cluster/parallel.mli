(** Share-nothing fleet execution on OCaml 5 domains under a
    deterministic round barrier.

    A fleet is N simulated hosts, each a full {!Velum_vmm.Hypervisor}
    built around its own {!Velum_vmm.Host_ctx} — so no host shares any
    mutable state with another.  The one shared object, the migration
    {!Velum_devices.Link}, is touched only by the coordinator while every
    worker is parked at a barrier.

    Execution alternates two phases per round:

    - {b worker phase}: every live host runs independently up to the
      absolute cycle boundary [(round+1) * quantum].  The hosts are
      statically partitioned into [m = min domains hosts] stripes (host
      [i] in stripe [i mod m]); the calling domain steps stripe 0 and
      [m - 1] spawned domains step the rest, so [--domains N] runs N
      domains in all.  With [domains = 1] the calling domain steps every
      host in host order.
    - {b barrier phase}: the coordinator alone performs the scheduled
      migration and then calls the [on_round] hook.  A scheduled host
      failure takes effect before the worker phase of its round.

    Because a host's quantum is a pure function of its own state, and
    the barrier phase is sequential in a fixed order, the simulated
    outcome — cycles, exits, monitor counters, trace exports, fault
    draws — is byte-identical for every domain count.  {!report} is the
    canonical artifact the determinism gates diff literally; it
    deliberately contains nothing about how the run was executed (no
    domain count, no wall-clock).  Failure detection is not the
    runner's job: {!Detector} watches a fleet from [on_round]. *)

type vm_spec = {
  vname : string;
  setup : Velum_guests.Images.setup;
  paging : Velum_vmm.Vm.paging_mode;
  pv : bool;
  engine : Velum_machine.Engine.kind;
}

val spec :
  ?paging:Velum_vmm.Vm.paging_mode ->
  ?pv:bool ->
  ?engine:Velum_machine.Engine.kind ->
  name:string ->
  Velum_guests.Images.setup ->
  vm_spec
(** Defaults: nested paging, no PV, {!Velum_machine.Engine.default}. *)

type config = private {
  hosts : int;
  quantum : int64;  (** cycles per round *)
  rounds : int;  (** maximum rounds (stops early when all hosts finish) *)
  mk_vms : int -> vm_spec list;  (** host id -> its VMs *)
  seed : int64;  (** fleet seed; per-host/per-link streams derive from it *)
  faults : Velum_util.Fault.t option;
      (** base plan; every host and link gets a {!Velum_util.Fault.derive}d
          copy with its own stream *)
  migrate_every : int;
      (** every k rounds move one VM to the next host; 0 = off *)
  fail_host : (int * int) option;  (** [(round, host)]: kill host at that round *)
  trace : bool;  (** attach a trace sink to every host *)
  host_frames : int option;
      (** fixed per-host frame pool; default sizes each host to its own
          VMs' needs + 1024.  The cluster control plane sets this so
          every host can absorb evacuated/migrated VMs. *)
  wire : (int -> Velum_vmm.Hypervisor.t -> unit) option;
      (** per-host fabric builder, called once per host at {!init} after
          its VMs are created and loaded.  Use it to build an intra-host
          network ({!Velum_devices.Switch} + {!Velum_vmm.Vm.attach_vnet})
          and register its tickers.  Everything it wires lives inside
          one host, so worker-phase parallelism never touches shared
          state and byte-determinism is preserved. *)
}

val config :
  ?quantum:int64 ->
  ?rounds:int ->
  ?seed:int64 ->
  ?faults:Velum_util.Fault.t ->
  ?migrate_every:int ->
  ?fail_host:int * int ->
  ?trace:bool ->
  ?host_frames:int ->
  ?wire:(int -> Velum_vmm.Hypervisor.t -> unit) ->
  hosts:int ->
  mk_vms:(int -> vm_spec list) ->
  unit ->
  config
(** Defaults: quantum 200k cycles, 8 rounds, seed 0, no faults, no
    migrations, no failure, no tracing, per-host frame pools sized to
    demand.

    @raise Invalid_argument on a non-positive host count, quantum,
    round count or [host_frames], a negative [migrate_every], or a
    [fail_host] with a negative round or a host outside [[0, hosts)]. *)

type node = private {
  id : int;
  hyp : Velum_vmm.Hypervisor.t;
  mutable alive : bool;
  mutable halted : bool;
  mutable error : exn option;
}

type fleet = private {
  cfg : config;
  nodes : node array;
  mig_link : Velum_devices.Link.t;
  mutable migrations : int;
  mutable mig_aborts : int;
  mutable mig_pages : int;
}

type result = { fleet : fleet; report : string }

val derive_plan :
  Velum_util.Fault.t option ->
  seed:int64 -> stream:int -> i:int -> Velum_util.Fault.t
(** Consumer [i]'s child of a base fault plan (an empty plan without
    one), on RNG stream [stream] mixed from the fleet [seed] so no two
    streams coincide ([i < 8191]).  The runner uses streams 0, 1 and 3
    (2 is retired), {!Detector} 4-5 and {!Control} from 6. *)

val place : node -> vm_spec -> Velum_vmm.Vm.t
(** Boot one VM on a host ({!Velum_guests.Images.create_vm}) and attach
    the host's fault plan to its block devices when the plan is active.
    {!init} places every configured VM this way; a control plane places
    later arrivals with it. *)

val init : config -> fleet
(** Build the fleet (hosts, VMs, migration link) without running it.  A control
    plane uses this to admit and place VMs before the first round. *)

val run_fleet :
  ?domains:int -> ?on_round:(fleet -> round:int -> unit) -> fleet -> unit
(** Execute an already-initialised fleet.  [on_round] is invoked by the
    coordinator — strictly sequentially, with every worker parked —
    after each round's scheduled migration; it may mutate fleet state
    through the mutators below and the hypervisors directly.  Because it
    runs only in the coordinator phase, anything it does is
    byte-deterministic whatever [domains] is.

    @raise Invalid_argument if [domains <= 0]. *)

val run_fleet_across :
  ?domains:int ->
  on_round:(fleet -> across:((int -> unit) -> unit) -> round:int -> unit) ->
  fleet ->
  unit
(** {!run_fleet} whose [on_round] may hand per-host work back to the
    stripes: [across f] runs [f i] for every host [i], each on the domain
    that steps host [i]'s stripe in the worker phase (the caller's for
    stripe 0), the hosts of one stripe in increasing order, and returns
    once every stripe is done.  [f i] may touch host [i]'s state and
    read what no other stripe writes; an exception it raises is recorded
    against host [i] and the first in host order is re-raised when the
    phase ends.  At [domains = 1] every [f i] runs on the caller, in host
    order.

    @raise Invalid_argument if [domains <= 0]. *)

val run :
  ?domains:int -> ?on_round:(fleet -> round:int -> unit) -> config -> result
(** [run ~domains cfg] = {!init} + {!run_fleet} + {!report}.
    [domains = 1] (default) is the sequential reference; any larger
    value runs [min domains hosts] stripes, stripe 0 on the caller and
    one spawned domain per other stripe.  The report is byte-identical
    across domain counts.

    An exception from a host, in any stripe, is recorded; at the end of
    that worker phase the fleet is shut down cleanly (domains joined)
    and the first one in host order is re-raised on the caller.

    @raise Invalid_argument if [domains <= 0]. *)

val set_alive : node -> bool -> unit
(** Coordinator-phase mutator: kill (cordon/reboot) or revive a host.
    The control plane's drain engine flips this; the records above are
    [private] so plain assignment is unavailable outside this module. *)

val clear_halted : node -> unit
(** Coordinator-phase mutator: clear the all-VMs-halted latch after
    placing fresh VMs on a host so the run loop keeps stepping it. *)

val report : fleet -> string
(** Recompute the canonical report (it is cheap and side-effect-free
    apart from {!Velum_vmm.Vm.publish_stats} gauge snapshots). *)

val traces : fleet -> (int * string) list
(** Per-host deterministic JSONL trace exports (empty unless the config
    asked for tracing). *)
