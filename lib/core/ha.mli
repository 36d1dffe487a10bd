(** High-availability supervision: checkpoint-to-store restart and
    heartbeat-driven host failover.

    Two recovery layers, matching two failure domains:

    - {b VM wedge} (guest livelock/deadlock): a per-VM supervisor
      checkpoints the VM to a crash-consistent {!Store} on a cycle
      cadence; when the hypervisor's progress watchdog ([Wd_restart])
      fires, the supervisor destroys the wedged VM and restores the last
      good checkpoint after an exponential backoff.  A crash-loop budget
      bounds futile restarts: once exceeded inside the window the VM is
      degraded to halted (kept registered for post-mortem) and
      [E_ha_degraded] is recorded.

    - {b host death / partition} (see {!Failover}): a primary/backup
      pair exchange cycle-stamped heartbeats over the replication
      {!Velum_devices.Link}; the backup counts consecutive misses and,
      past the limit, bumps its generation and activates the Remus twin
      via {!Replicate.failover} — automatically, no operator call.  The
      generation counter guards split-brain: a stale primary that
      returns sees the higher-generation TAKEOVER announcement and
      fences itself (refuses to run). *)

open Velum_devices

type t

type stats = {
  checkpoints : int;  (** durably committed *)
  torn_checkpoints : int;  (** cut by a power failure; retried next cadence *)
  checkpoint_cycles : int64;
      (** guest pause charged for commits — on the delta's actual byte
          count, so an incremental commit pauses for its churn, not the
          image footprint *)
  restarts : int;  (** successful destroy-and-restore cycles *)
  degraded : bool;  (** crash-loop budget exhausted (or store empty) *)
  mttr_total : int64;  (** summed stall-detection → running-again time *)
  mttr_events : int;
  ckpt_bytes : int;  (** bytes the committed checkpoints actually wrote *)
  ckpt_logical_bytes : int;
      (** image bytes those checkpoints represent; the ratio to
          [ckpt_bytes] is the store's dedup win *)
  frames_churned : int;  (** dirty frames covered by committed checkpoints *)
}

val create :
  hyp:Hypervisor.t ->
  store:Store.t ->
  vm:Vm.t ->
  ?checkpoint_every:int64 ->
  ?wd_budget:int64 ->
  ?max_restarts:int ->
  ?backoff_base:int64 ->
  unit ->
  t
(** Supervise [vm]: arm the hypervisor watchdog with [Wd_restart]
    (budget [wd_budget], default 150k cycles), chain into the restart
    handler, and take the baseline checkpoint.  Checkpoints then recur
    every [checkpoint_every] cycles (default 300k) of {!run}.  A restart
    is delayed [backoff_base * 2^(n-1)] cycles for the [n]th restart in
    the current window (default base 100k); more than [max_restarts]
    (default 3) inside a fixed 50M-cycle restart window degrades the
    VM.

    Only runnable, progressing states are committed: an all-blocked
    image {e is} the wedge, so cadence points that catch the VM blocked
    (or with unchanged retired-instruction count) are skipped — "last
    good checkpoint" means the newest state that could still run.  A
    point whose image has a page that cannot be brought back in (the
    host is out of frames) is skipped too, not committed with a hole:
    no pause is charged and the previous generation still rules.

    Commits go through {!Snapshot.source} with the dirty-set hint the
    previous committed checkpoint left, and the cadence gate reads a
    cursor on the host's one {!Churn} tracker, which every supervisor on
    the host shares.

    Note: [create] owns the hypervisor's watchdog configuration; arm at
    most one supervisor per VM.

    @raise Invalid_argument on a non-positive cadence or budget. *)

val run : t -> budget:int64 -> Hypervisor.outcome
(** Drive {!Hypervisor.run} in checkpoint-cadence slices for [budget]
    cycles, interleaving commits, due restores and stall handling.  A
    sole wedged VM freezes the hypervisor clock (the in-loop watchdog
    never sees its budget elapse), so an [Idle_deadlock] outcome from a
    slice is treated as the stall signal for the supervised VM.
    Checkpoint commits and restart backoffs advance the clock as idle
    time, so same-seed runs are cycle-deterministic. *)

val vm : t -> Vm.t
(** The current incarnation (changes across restarts). *)

val degraded : t -> bool
val stats : t -> stats

val inject_stall : Vm.t -> unit
(** Wedge the VM: block every non-halted vCPU with no wake event —
    exactly the livelock shape the watchdog exists to catch.  Test and
    benchmark helper. *)

(** Heartbeat-driven failover between a primary and backup hypervisor,
    layered on a {!Replicate} session. *)
module Failover : sig
  type t

  (** Detector tuning, the one knob record for every heartbeat detector:
      this pair and the fleet's {!Velum_cluster.Detector}.  [miss_limit] and [timeout] feed a
      {!Suspicion} machine, which validates all three dials. *)
  type hb_knobs = {
    miss_limit : int;
        (** consecutive heartbeat misses before takeover (default 3) *)
    timeout : int64;
        (** additionally require [now - last_heartbeat >= timeout]
            cycles before taking over; 0 = miss count alone decides *)
    takeover_backoff : int64;
        (** base spacing of TAKEOVER re-announcements, doubled each
            announcement; 0 = re-announce every epoch (the historical
            behaviour).  The cluster detector reuses it as its probe
            backoff. *)
  }

  val default_hb_knobs : hb_knobs
  (** [{ miss_limit = 3; timeout = 0L; takeover_backoff = 0L }] —
      byte-identical to the formerly hard-wired constants. *)

  type stats = {
    epochs : int;  (** protocol steps driven *)
    primary_epochs : int;  (** steps the guest ran on the primary *)
    backup_epochs : int;  (** steps the twin ran after takeover *)
    split_brain_epochs : int;
        (** steps where both instances ran (partition, primary alive) —
            the window the generation fence exists to close *)
    hb_sent : int;
    hb_lost : int;  (** eaten by the [hb.loss] site before the wire *)
    hb_seen : int;
    generation : int;  (** backup's view; bumped once at takeover *)
    fenced : bool;  (** the stale primary saw TAKEOVER and stood down *)
    failover_at : int64 option;  (** session cycle of twin activation *)
    mttr : int64 option;  (** last-heartbeat-seen → twin running *)
  }

  val create :
    ?faults:Velum_util.Fault.t ->
    primary:Hypervisor.t ->
    backup:Hypervisor.t ->
    vm:Vm.t ->
    link:Link.t ->
    ?knobs:hb_knobs ->
    ?primary_dies_at:int64 ->
    unit ->
    t
  (** Start a {!Replicate} session for [vm] and the heartbeat protocol
    around it.  Each {!epoch}: the primary (unless dead or fenced) first
    honours any TAKEOVER announcement, else replicates one epoch and
    sends one heartbeat (unless the [hb.loss] site eats it; link-level
    drop/partition faults apply on the wire too).  The backup feeds a
    {!Suspicion} machine in session cycles; once [knobs.miss_limit]
    misses {e and} [knobs.timeout] heartbeat-less cycles have accumulated
    it bumps its generation, activates the twin with
    [Replicate.failover ~fence_primary:false], and announces TAKEOVER —
    every epoch, or on [knobs.takeover_backoff] exponential spacing —
    until the primary fences.  [primary_dies_at] models host death: past
    that session cycle the primary neither runs nor heartbeats.

    @raise Invalid_argument on a non-positive miss limit or negative
    timeout/backoff. *)

  val epoch : t -> run_cycles:int64 -> unit
  (** One protocol step (both halves). *)

  val run : t -> epoch_cycles:int64 -> epochs:int -> Vm.t * stats
  (** Drive [epochs] steps and return the surviving instance: the
      activated twin if failover happened, else the primary's VM. *)

  val stats : t -> stats
  val failed_over : t -> Vm.t option
  val primary_may_run : t -> bool
  (** [false] once the primary is dead or fenced. *)
end
