(** Checkpoint replication for high availability (Remus-style).

    A protected VM runs in epochs: at the end of each epoch the primary
    pauses briefly, ships the pages dirtied during the epoch plus the
    rest of its state ({!Vm_state}: vCPUs and devices) to a warm backup
    on another host, and resumes.  If the
    primary fails, the backup resumes from the last completed checkpoint
    — losing at most one epoch of execution, with no shared storage of
    memory state required.

    The trade-off this module lets the benchmarks quantify: shorter
    epochs bound the failover loss window but pause the guest more often
    (checkpoint overhead grows), exactly the knob the Remus paper
    (NSDI'08) evaluates.

    Checkpoints travel the way migrations do: each epoch ships its batch
    on a fresh {!Migrate.Wire}, {!Migrate.apply}s it to a twin built from
    the VM's shape ({!Vm_state.create_vm}) and loads the VM's state into
    it.  The one difference: the twin's vCPUs are blocked again after
    every load, so the backup stays blocked until {!failover}.  Ports do
    not move to the backup, and disk contents are not replicated.  This
    module is the layer {!Ha.Failover} builds on. *)

open Velum_devices

type session

type stats = {
  epochs_completed : int;
  pages_sent : int;  (** epoch checkpoints only *)
  initial_pages : int;  (** the one-time full synchronization *)
  initial_sync_cycles : int64;
  bytes_sent : int;
      (** everything on the wire, including the full sync and
          retransmitted frames *)
  paused_cycles : int64;  (** guest stopped while epoch checkpoints
                              shipped (full sync excluded) *)
  run_cycles : int64;  (** guest execution between checkpoints *)
  retransmits : int;  (** checkpoint frames re-sent (lost frames or acks) *)
  link_failed : bool;  (** a checkpoint could not commit; failover time *)
}

type epoch_outcome =
  | Committed  (** the checkpoint applied atomically to the backup *)
  | Link_failed  (** retries exhausted mid-checkpoint: nothing applied *)

val start :
  ?faults:Velum_util.Fault.t ->
  primary:Hypervisor.t ->
  backup:Hypervisor.t ->
  vm:Vm.t ->
  link:Link.t ->
  unit ->
  session
(** Full initial synchronization (guest paused), then dirty logging is
    armed and the VM keeps running on the primary.  The backup twin is
    created blocked — it must not execute while the primary lives.
    [faults] defaults to the plan attached to [link]; it picks each
    checkpoint wire's cost model.  Wires start at session time, so
    cycle-windowed link death lands at a predictable epoch.  The full
    sync itself is assumed reliable and ships on an ideal wire.

    @raise Migrate.Abort_migration if the backup host has too few free
    frames to hold the VM. *)

val epoch : session -> run_cycles:int64 -> epoch_outcome
(** Run the guest for [run_cycles] on the primary, then pause it for the
    time the epoch's dirty pages + vCPU state occupy the wire, applying
    them to the backup.  Application is atomic: on [Link_failed] —
    retries exhausted, or the backup host short of frames — the backup
    still holds the previous completed checkpoint, and every later call
    returns [Link_failed] without running the guest. *)

val stats : session -> stats

val elapsed : session -> int64
(** Session cycles: initial sync + guest run time + checkpoint pauses.
    This is the clock cycle-windowed fault plans and the HA heartbeat
    protocol run on. *)

val failover : ?fence_primary:bool -> session -> Vm.t
(** The primary is declared dead: it is destroyed, and the backup twin is
    unblocked at the last completed checkpoint (its {!Monitor} records
    [E_ha_failover]).  Idempotent: a second invocation — e.g. a
    heartbeat-driven failover racing an explicit one in the HA control
    plane — returns the already-activated twin instead of raising.

    [~fence_primary:false] activates the twin {e without} touching the
    primary's instance — the partitioned-backup case, where the primary
    may still be alive and must be fenced separately by the generation
    protocol (see {!Ha.Failover}). *)

val failed_over : session -> Vm.t option
(** The activated twin, once {!failover} has run. *)

val protect :
  ?faults:Velum_util.Fault.t ->
  primary:Hypervisor.t ->
  backup:Hypervisor.t ->
  vm:Vm.t ->
  link:Link.t ->
  epoch_cycles:int64 ->
  epochs:int ->
  unit ->
  Vm.t * stats
(** Convenience: [start], run [epochs] epochs (stopping early if the
    link fails), then [failover]. *)
