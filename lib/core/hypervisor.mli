(** The hypervisor: host resources, a vCPU scheduler, and the run loop
    that multiplexes virtual machines on one or more physical CPUs.

    The run loop picks a vCPU, world-switches in (charging
    {!Velum_machine.Cost_model.t.ctx_switch}), executes deprivileged
    guest code until the slice expires or an exit needs service, routes
    exits through {!Emulate}, and keeps device models and virtual timers
    flowing.  Blocked vCPUs wake when a virtual interrupt becomes
    deliverable; a fully idle host fast-forwards its clock to the next
    event. *)

type pcpu = { mutable pclock : int64 }

type watchdog_policy =
  | Wd_kill  (** halt the stalled VM's vCPUs *)
  | Wd_notify  (** count the event and restart the window *)
  | Wd_restart
      (** hand the stalled VM to the restart handler (see
          {!set_restart_handler}) — an HA supervisor destroys it and
          restores the last good checkpoint.  Falls back to [Wd_kill]
          when no handler is attached. *)

type watchdog

type t = {
  ctx : Host_ctx.t;
      (** every piece of per-host ambient state — machine resources,
          scheduler, RNG/fault roots, trace sink — so two hypervisors
          (possibly on two domains) share nothing through [t] *)
  mutable vms : Vm.t list;  (** registration order *)
  pcpus : pcpu array;
  mutable clock : int64;  (** makespan: max over pcpu clocks *)
  mutable next_vm_id : int;
  mutable idle_cycles : int64;
  mutable sched_decisions : int;
  mutable watchdog : watchdog option;
  mutable restart_handler : (Vm.t -> unit) option;
  mutable tickers : (int64 -> unit) list;
      (** ambient per-host infrastructure ticked at every wake point —
          e.g. a software switch between this host's VMs *)
  mutable event_sources : (unit -> int64 option) list;
      (** extra feeds for the idle-time event search (e.g.
          {!Velum_devices.Switch.next_event}) so pending fabric work
          wakes an otherwise idle host instead of deadlocking it *)
}

val create :
  ?ctx:Host_ctx.t -> ?host:Host.t -> ?sched:Scheduler.t -> ?pcpus:int -> unit -> t
(** Defaults: a fresh {!Host_ctx} (64 MiB host, credit scheduler), one
    pCPU.  [~ctx] supplies the whole per-host context; it cannot be
    combined with [~host]/[~sched], which remain as shorthands that
    build a fresh context around the given pieces.  With several pCPUs
    the run loop is an event-driven multiprocessor simulation: each pCPU
    has its own cycle clock, the scheduler's run queue is global (vCPUs
    migrate freely), an idle pCPU's clock never runs ahead of a busy
    peer's (so wakeups stay visible), and a vCPU's own virtual time is
    monotonic across pCPUs. *)

val ctx : t -> Host_ctx.t
val host : t -> Host.t
(** [host t] = [(ctx t).host]. *)

val sched : t -> Scheduler.t
(** [sched t] = [(ctx t).sched]. *)

val now : t -> int64
(** Makespan: the farthest pcpu clock. *)

val set_trace : t -> Trace.t -> unit
(** Attach a tracing sink: every current and future VM records into it,
    and this hypervisor's scheduler's {!Scheduler.t.notify} field is
    pointed at it (other hypervisors' schedulers are untouched).
    Tracing is host-side bookkeeping only — simulated cycles, exits and
    scheduling are byte-identical with tracing on or off. *)

val trace : t -> Trace.t option

val create_vm :
  t ->
  name:string ->
  mem_frames:int ->
  ?vcpu_count:int ->
  ?paging:Vm.paging_mode ->
  ?pv:Vm.pv ->
  ?weight:int ->
  ?populate:bool ->
  ?tlb_size:int ->
  ?exec_mode:Vm.exec_mode ->
  ?engine:Velum_machine.Engine.kind ->
  entry:int64 ->
  unit ->
  Vm.t
(** Create a VM, register its vCPUs with the scheduler and return it.
    Load a boot image with {!Vm.load_image} before running.  [engine]
    overrides the host's default execution engine for this VM. *)

val remove_vm : t -> Vm.t -> unit
(** Deschedule and destroy the VM, returning its frames to the host. *)

val find_vm : t -> vm_id:int -> Vm.t option

type outcome =
  | All_halted  (** every vCPU of every VM has halted *)
  | Until_satisfied
  | Out_of_budget
  | Idle_deadlock  (** every vCPU blocked with no wake event in sight *)

val set_watchdog : t -> budget:int64 -> policy:watchdog_policy -> unit
(** [set_watchdog t ~budget ~policy] arms a per-VM progress watchdog: if
    a (non-halted) VM retires no instructions for [budget] consecutive
    cycles of host time, the event is counted in the VM's {!Monitor}
    under [E_watchdog] and the policy is applied.

    @raise Invalid_argument if [budget <= 0]. *)

val watchdog_fired : t -> int
(** Total watchdog firings across all VMs (0 when unarmed). *)

val set_restart_handler : t -> (Vm.t -> unit) -> unit
(** Install the [Wd_restart] callback.  The handler is invoked from
    inside the run loop with the wedged VM still registered; it may
    remove the VM and register a replacement (the loop iterates over a
    captured VM list, so mutation is safe).  Chain via
    {!restart_handler} when several supervisors share a hypervisor. *)

val restart_handler : t -> (Vm.t -> unit) option

val add_ticker : t -> (int64 -> unit) -> unit
(** Register an ambient ticker, called with the current clock at every
    wake point (before device buses tick).  Registration order is the
    tick order — keep wiring order fixed for byte-deterministic runs. *)

val add_event_source : t -> (unit -> int64 option) -> unit
(** Register an extra next-event feed consulted when every vCPU is
    blocked, alongside device completions and timer deadlines. *)

val advance_idle : t -> to_:int64 -> unit
(** Fast-forward every pCPU clock to [to_] (no-op for clocks already
    past it), charging the skipped span as idle cycles.  Models pauses
    whose cost is known up front: checkpoint commits, restart
    backoff. *)

val run : ?budget:int64 -> ?until:(t -> bool) -> t -> outcome
(** [run ?budget ?until t] — default budget 2G cycles. *)

val run_vm : t -> Vm.t -> cycles:int64 -> unit
(** [run_vm t vm ~cycles] advances only [vm] (round-robin over its
    runnable vCPUs) for the given number of host cycles — used by live
    migration to let the guest execute "during" a transfer round.  Time
    always advances by [cycles] (idle if the VM blocks). *)

(** {1 Accounting} *)

val guest_cycles : t -> int64
val vmm_cycles : t -> int64

val vcpu_index : Vm.t -> Vcpu.t -> int
(** Position of a vCPU within its VM.

    @raise Not_found if it belongs to another VM. *)
