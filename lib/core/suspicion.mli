(** Heartbeat suspicion: the one rule that decides a silent peer is dead.

    {!Ha.Failover} and the fleet's spoke detector ([cluster.Detector])
    feed this machine one verdict per tick of their own clock.  It declares death when [misses >= miss_limit] and
    [now - last_heard >= timeout]; death is sticky until {!rearm}.

    One tick is [quantum] cycles.  The cycle timeout becomes ticks once,
    with {!rounds_of_cycles}: [(now - last) * quantum >= timeout] holds
    exactly when [now - last >= ceil (timeout / quantum)]. *)

type state =
  | Up
  | Suspect  (** missing heartbeats, not declared yet *)
  | Dead  (** declared; heartbeats no longer count until {!rearm} *)
  | Disarmed  (** a planned outage; nothing counts until {!rearm} *)

type t

val rounds_of_cycles : quantum:int64 -> int64 -> int
(** [ceil (c / quantum)] for [c > 0], else 0; saturates at [max_int]. *)

val create :
  ?quantum:int64 ->
  ?backoff:int64 ->
  miss_limit:int ->
  timeout:int64 ->
  last_heard:int ->
  unit ->
  t
(** [Up], last heard at tick [last_heard].  [quantum] defaults to 1
    (ticks are cycles); [timeout] is in cycles.  [backoff] is the
    adapter's re-contact spacing, validated here with the other knobs so
    that every detector rejects the same settings.

    @raise Invalid_argument unless [miss_limit > 0], [quantum > 0] and
    [timeout], [backoff >= 0]. *)

val heard : t -> now:int -> unit
(** Proof of life at tick [now]: [Up], misses cleared.  Ignored when
    [Dead] or [Disarmed]. *)

val missed : t -> now:int -> bool
(** Tick [now] passed silently: [true] iff this miss declares the peer
    dead, else it is [Suspect].  Ignored when [Dead] or [Disarmed]. *)

val disarm : t -> unit

val rearm : t -> now:int -> unit
(** [Up], misses cleared, last heard [now], declaration forgotten. *)

val state : t -> state
val misses : t -> int
val last_heard : t -> int
val declared_at : t -> int option
