(** Rolling host maintenance: cordon → drain → reboot → refill.

    A pure per-host state machine, driven once per round from the
    coordinator phase; the control plane supplies the actual mechanics
    (target selection, live migration, checkpoint fallback) as the
    [migrate_one] callback, so this module owns only the protocol —
    bounded concurrent migrations, retry/abort accounting, a fixed
    reboot outage, and the refill hand-back. *)

type phase =
  | Cordoned  (** closed to placement; VMs still running *)
  | Draining  (** mass live migration in progress *)
  | Rebooting  (** host down for maintenance; detector disarmed *)
  | Done

type t

val start : host:int -> round:int -> t
(** Policy is fixed: at most 2 migrations per round, {!retry_limit}
    (3) retries per VM before the control plane falls back to a cold
    move, and a 2-round reboot outage. *)

val step :
  t ->
  round:int ->
  resident:int ->
  migrate_one:(unit -> [ `Moved | `Cold_moved | `Failed | `No_target ]) ->
  on_reboot:(unit -> unit) ->
  on_refill:(unit -> unit) ->
  unit
(** One round of progress.  While draining, [migrate_one] is invoked up
    to 2 times (or until [resident] VMs are accounted for): [`Moved] =
    live migration succeeded, [`Cold_moved] = the control plane gave up
    on live migration and restored the VM from its checkpoint elsewhere,
    [`Failed] = one attempt failed (retry next call/round), [`No_target]
    = no host can take the next VM — stalls this round.  When the host
    empties, [on_reboot] fires once (kill + disarm detector), then after
    2 rounds [on_refill] fires once (revive + rearm + uncordon). *)

val host : t -> int
val phase : t -> phase
val retry_limit : int
(** Failed live-migration attempts per VM (3) before the control plane
    falls back to a cold move. *)

val active : t -> bool
(** [false] once [Done]. *)

type stats = {
  migrations : int;  (** successful live migrations *)
  failed_attempts : int;  (** per-attempt failures (retried) *)
  cold_moves : int;  (** retry-exhausted VMs moved via checkpoint *)
  completed_at : int option;  (** round the host came back *)
}

val stats : t -> stats
