(** Paravirtual network device on two {!Virtio_ring}s.

    The guest programs a TX ring and an RX ring (separate rings so a
    stalled receive path never head-of-line-blocks transmits through the
    in-order used index), then:

    {b TX} — publish a batch of descriptors, bump avail, write the TX
    doorbell {e once}: the device consumes every pending slot in one
    pass, so a burst of n frames costs one VM exit (doorbell
    coalescing).  Descriptor = frame bytes at [data_gpa, data_len);
    status word gets [1] on error, stays [0] on success (completion is
    signalled by the used index, not the status).

    {b RX} — post empty buffer descriptors; the device polls the wire
    and the avail index on its own tick, delivers frames in order and
    writes a length-carrying status word [(len lsl 8)].  It reads a
    slot's descriptor when it reaches the slot — to fill it with the
    next frame, or to fail it as malformed — so a tick with no frame
    waiting reads the indexes and the first posted descriptor only.
    Reposting buffers is a plain store; the whole receive path costs
    {e zero} VM exits.

    Accounting is conservative, like {!Nic}: every frame is delivered or
    counted ([tx_dropped]/[tx_malformed]/[rx_dropped]/[rx_malformed]/
    [rx_overflow]); wire losses are the link's ({!Link.wire_dropped}).

    Register layout (offsets from base):
    - [0x00] TX_KICK (doorbell), [0x08] ISR (read-to-clear)
    - [0x10] TX_RING_BASE, [0x18] TX_RING_SIZE
    - [0x20] RX_RING_BASE, [0x28] RX_RING_SIZE
    - [0x30] SENT, [0x38] RECEIVED, [0x40] TX_DROPPED,
      [0x48] RX_DROPPED, [0x50] RX_OVERFLOW, [0x58] KICKS (all read) *)

val reg_isr : int64
val reg_tx_ring_base : int64
val reg_tx_ring_size : int64
val reg_rx_ring_base : int64
val reg_rx_ring_size : int64

val mmio_base : int64
(** Conventional base address ([0x4000_4000]). *)

val max_frame : int

type t

val create :
  link:Link.t ->
  endpoint:Link.endpoint ->
  mem:Virtio_ring.guest_mem ->
  ?backlog_capacity:int ->
  unit ->
  t

val device : ?base:int64 -> t -> Velum_machine.Bus.device

val kick : t -> unit
(** Host-side doorbell (tests). *)

val tick : t -> int64 -> unit

val state : t -> Velum_util.Serial.io -> unit
(** Save or load the device state: ring layout and undelivered backlog.
    The counters stay with the adapter (fabric audits sum them per
    adapter), and so does the port ({!link}, {!endpoint}). *)

val unplug : t -> unit
(** The port moved to an adapter that loaded this one's state: drop the
    backlog it took along. *)

val frames_sent : t -> int
val frames_received : t -> int

val tx_dropped : t -> int
(** Well-formed TX descriptors that produced no wire frame (bad length
    or unreadable payload). *)

val tx_malformed : t -> int
(** TX slots whose descriptor words were unreadable — failed via
    {!Virtio_ring.fail_slot} and completed past. *)

val rx_dropped : t -> int
(** Frames consumed against a buffer that could not take them (too
    small, or DMA write failed). *)

val rx_malformed : t -> int
(** RX buffer slots with unreadable descriptor words (consumes the slot,
    not a frame). *)

val rx_overflow : t -> int
(** Arrivals discarded because the device backlog was full. *)

val kicks : t -> int
(** TX doorbell writes — [frames_sent / kicks] is the coalescing
    ratio. *)

val backlog_length : t -> int

val next_arrival : t -> int64 option
(** Earliest cycle at which a frame will arrive from the wire. *)

val link : t -> Link.t
(** The wire (for conservation audits). *)

val endpoint : t -> Link.endpoint
(** The side of {!link} this adapter is plugged into. *)
