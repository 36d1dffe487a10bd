(** The fleet's one heartbeat failure detector.

    Hub-and-spoke over the ordinary {!Velum_devices.Link} control lanes:
    every host owns a spoke link to a hub.  Each round the host
    (simulated coordinator-side, so the whole protocol runs in the
    strictly-sequential barrier phase) answers outstanding probes and
    emits one cycle-stamped heartbeat; the hub polls the spoke at the
    round horizon and feeds each host's {!Velum_vmm.Suspicion} machine
    (in rounds, last heard at round -1), which declares it dead once.
    A suspect host is probed with exponential backoff; an answered probe
    (ACK) counts as a heartbeat.

    It watches any {!Parallel} fleet from the [on_round] hook, with each
    node's [alive] flag as ground truth: {!Control} acts on its
    declarations (fence, evacuate), and [velum run --hosts] reports
    them.

    Tuning is {!Velum_vmm.Ha.Failover.hb_knobs}: [miss_limit] and
    [timeout] go to the suspicion machine; [takeover_backoff] (cycles →
    rounds, at least 1) is the probe spacing, doubled per unanswered
    probe up to 2{^8} times.

    Fault exposure: each spoke derives an independent child plan from
    the base plan (streams 4/5, disjoint from the fleet runner's).
    The [cluster.hb] site eats heartbeats/ACKs {e before} the wire;
    link-level sites ([drop], [partition], [delay]...) apply on the
    spoke itself.  Everything is deterministic in the fleet seed. *)

type t

val create :
  ?knobs:Velum_vmm.Ha.Failover.hb_knobs ->
  ?faults:Velum_util.Fault.t ->
  hosts:int ->
  quantum:int64 ->
  seed:int64 ->
  unit ->
  t
(** One spoke per host.  [quantum] must match the fleet runner's round
    quantum — heartbeats are stamped at round boundaries.

    @raise Invalid_argument on non-positive hosts, quantum or miss
    limit, or a negative timeout or backoff. *)

val observe_round : t -> alive:(int -> bool) -> round:int -> int list
(** Drive one detection round.  [alive i] is ground truth: whether host
    [i] actually emits a heartbeat this round (dead or rebooting hosts
    do not).  Returns the hosts newly declared dead this round, in
    ascending id order.  Must be called from the coordinator phase,
    once per round, in round order. *)

val run_watched :
  ?knobs:Velum_vmm.Ha.Failover.hb_knobs ->
  ?domains:int ->
  Parallel.config ->
  Parallel.fleet * t
(** The watched fleet of [velum run --hosts]: {!Parallel.init} the
    fleet, {!create} a detector from the config's faults, host count,
    quantum and seed, and {!Parallel.run_fleet} it with {!observe_round}
    fed every node's [alive] flag on every round. *)

val declared_at : t -> int -> int option
(** Round the host was declared dead, if it was. *)

val disarm : t -> int -> unit
(** Stop counting misses for a host the control plane {e knows} is down
    (cordoned reboot) — a planned outage must not look like a death. *)

val rearm : t -> int -> round:int -> unit
(** Resume watching a host after reboot/recovery: health [Up], misses
    cleared, last-seen set to [round]. *)

type stats = {
  hb_sent : int;
  hb_lost : int;  (** eaten pre-wire by [cluster.hb] (HBs and ACKs) *)
  probes_sent : int;
  acks_seen : int;
  deaths : int;
}

val stats : t -> stats

val summary : t -> string
(** The one-line report both the control plane and [velum run --hosts]
    print: the {!stats} counters plus the control-lane bytes across all
    spokes (heartbeats, probes and ACKs), newline-terminated. *)
