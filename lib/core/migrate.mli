(** Live migration of a VM between two hypervisors over a network link.

    Three strategies, as in the live-migration literature:

    - {!stop_and_copy}: freeze, transfer everything, resume — downtime
      equals total time (the baseline);
    - {!precopy}: iterative rounds — transfer all pages while the guest
      keeps running and dirtying, then re-send each round's dirty set
      until it is small enough (or stops shrinking), then freeze for a
      short final round.  Downtime scales with the residual dirty set;
      writable-working-set behaviour decides convergence;
    - {!postcopy}: freeze only for the vCPU state, resume on the
      destination immediately, pull pages on demand (charging a network
      round trip per fault) while pushing the rest in the background.
      Minimal downtime, degraded performance until the working set
      arrives.

    Memory moves page by page; everything else moves through the
    {!Vm_state} codec when the guest freezes: the twin is built from the
    source's shape, takes over its ports ({!Vm_state.move}) and loads
    its vCPU and device state.  Disk contents do not move: each VM's
    disks are its own, so storage is "shared" only for disks no guest
    writes.  Stop-and-copy and pre-copy ship every batch on one
    {!Wire}, which charges it through the {!Velum_devices.Link}
    bandwidth/latency model — ideally, or frame by frame with
    retransmits when a fault plan is active — and then {!apply} it to
    the destination twin.  The source VM executes on its hypervisor for
    the duration of each transfer round, so dirtying happens at the
    guest's natural rate.  {!Replicate} ships its checkpoints the same
    way.  Post-copy keeps the ideal cost model. *)

open Velum_devices

type result = {
  total_cycles : int64;  (** start of migration to guest running on the
                             destination with all pages resident *)
  downtime_cycles : int64;  (** guest frozen (neither side executing) *)
  pages_sent : int;  (** includes re-sends and post-copy pulls *)
  bytes_sent : int;
  rounds : int;  (** pre-copy rounds (1 for stop-and-copy) *)
  remote_faults : int;  (** post-copy demand fetches *)
  retransmits : int;  (** frames re-sent after a timeout or NACK *)
  aborted : bool;  (** retries exhausted: rolled back, source resumed *)
}

val page_wire_bytes : int
(** Bytes on the wire per page (page + header). *)

val vcpu_state_bytes : int
(** Bytes on the wire for the vCPU record. *)

exception Abort_migration of string
(** A batch could not be delivered or applied: the reliable wire's
    retries exhausted, or the destination host is short of frames.
    Raised by {!Wire.ship} and {!apply}; the strategies catch it and roll
    back. *)

(** The one transport every migration strategy and every replication
    checkpoint ships over.  It picks its cost model once, at {!create},
    from {!Velum_util.Fault.active}:

    - {e ideal} (no active plan): a batch costs one
      {!Velum_devices.Link.transfer_cycles} over its wire footprint —
      zero pages elided to a 24-byte marker under [compress] — plus
      {!vcpu_state_bytes} when it carries the vCPU record;
    - {e reliable} (an active plan): each page and the vCPU record travel
      as one frame carrying a sequence number and an FNV-1a checksum; the
      receiver NACKs corrupted frames and dedups retransmits; the sender
      retries with exponential backoff.  No compression.

    Both advance one clock and one byte counter. *)
module Wire : sig
  type t

  val create :
    ?now:int64 -> link:Link.t -> faults:Velum_util.Fault.t -> compress:bool -> unit -> t
  (** [now] seeds the clock (so cycle-windowed faults line up with
      session time); default [0L]. *)

  val ship : t -> vm:Vm.t -> vcpus:bool -> int64 list -> unit
  (** Ship the current contents of these gfns of [vm], then the vCPU
      record when [vcpus].  Nothing reaches a twin; see {!apply}.

      @raise Abort_migration when reliable retries exhaust. *)

  val clock : t -> int64

  val bytes_sent : t -> int
  (** Everything that went on the wire, retransmitted frames included. *)

  val pages_sent : t -> int
  val retransmits : t -> int
end

val present_gfns : Vm.t -> int64 list
(** Every present gfn, ascending. *)

val apply : vm:Vm.t -> twin:Vm.t -> int64 list -> unit
(** Copy a shipped batch of pages from [vm] into [twin], all or nothing:
    the twin's host must have a free frame for every gfn the twin does
    not hold yet, checked before anything is copied.

    @raise Abort_migration when it does not. *)

val stop_and_copy :
  ?compress:bool ->
  ?faults:Velum_util.Fault.t ->
  src:Hypervisor.t ->
  dst:Hypervisor.t ->
  vm:Vm.t ->
  link:Link.t ->
  unit ->
  Vm.t * result
(** [compress] elides all-zero pages to a 24-byte wire marker (default
    false).

    [faults] defaults to the plan attached to [link]; it picks the
    {!Wire}'s cost model.  Retry exhaustion, or a destination short of
    frames, aborts: the returned VM is then the {e source} (resumed,
    untouched) and the destination twin is destroyed, its frames
    reclaimed — check [aborted]. *)

val precopy :
  ?compress:bool ->
  ?faults:Velum_util.Fault.t ->
  src:Hypervisor.t ->
  dst:Hypervisor.t ->
  vm:Vm.t ->
  link:Link.t ->
  ?max_rounds:int ->
  ?stop_threshold:int ->
  unit ->
  Vm.t * result
(** Defaults: at most 8 rounds; freeze when the dirty set is ≤ 64
    pages.  Also freezes early when a round fails to shrink the dirty
    set (non-convergence guard).

    [faults] as in {!stop_and_copy}; under loss the guest keeps running
    (and dirtying) for the {e whole} round wire time, retransmits and
    backoff included.  On abort the source VM resumes with dirty logging
    stopped and the twin's frames are freed. *)

val postcopy :
  src:Hypervisor.t ->
  dst:Hypervisor.t ->
  vm:Vm.t ->
  link:Link.t ->
  unit ->
  Vm.t * result
(** 32 pages are pushed in the background between execution bursts. *)
