(** Network interface with a register/DMA ("fully emulated") front end.

    Each NIC is bound to one endpoint of a {!Link}.  Transmit: the guest
    writes the frame's guest-physical address and length, then the TX
    doorbell; the device DMAs the frame out and puts it on the wire.
    Receive: arrived frames queue in the device; the guest reads RX_LEN
    (0 = nothing pending), writes a buffer address to RX_DMA and the RX
    doorbell; the device DMAs the frame in.  The interrupt line is up
    while the receive queue is non-empty.

    Frame accounting is conservative: every frame a doorbell touches is
    either delivered or lands in a named counter.  A TX doorbell with a
    bad length or unreadable DMA source counts [tx_dropped]; an RX
    doorbell whose DMA target is unwritable consumes the frame into
    [rx_dropped] (never silently); arrivals that find the device queue
    full count [rx_overflow].  Frames lost {e on the wire} are the
    link's to count ({!Link.wire_dropped}), so across a NIC pair:
    sent + dup = received + rx_dropped + rx_overflow + queued + wire_dropped.

    Register layout (offsets from base):
    - [0x00] TX_ADDR, [0x08] TX_LEN, [0x10] TX_CMD (doorbell)
    - [0x18] RX_LEN (read), [0x20] RX_DMA, [0x28] RX_CMD (doorbell)
    - [0x30] FRAMES_SENT (read), [0x38] FRAMES_RECEIVED (read)
    - [0x40] TX_DROPPED (read), [0x48] RX_DROPPED (read),
      [0x50] RX_OVERFLOW (read) *)

val reg_tx_addr : int64
val reg_tx_len : int64
val reg_tx_cmd : int64
val reg_rx_len : int64
val reg_rx_dma : int64
val reg_rx_cmd : int64

val mmio_base : int64
(** Conventional base address ([0x4000_1000]). *)

val max_frame : int

type link_binding = Link.t * Link.endpoint
(** Which link and which end of it a NIC is plugged into. *)

type t

val create :
  link:Link.t -> endpoint:Link.endpoint -> dma:Blockdev.dma -> ?rx_capacity:int -> unit -> t

val device : ?base:int64 -> t -> Velum_machine.Bus.device

val state : t -> Velum_util.Serial.io -> unit
(** Save or load the device state: DMA registers and receive queue.  As
    in {!Virtio_net.state}, the counters and the port {!binding} stay
    with the adapter. *)

val frames_sent : t -> int
(** Frames actually handed to the wire (the link may still lose them —
    see {!Link.wire_dropped}). *)

val frames_received : t -> int
(** Frames DMAed into guest memory. *)

val tx_dropped : t -> int
(** TX doorbells that produced no wire frame: length out of range or
    DMA-read failure. *)

val rx_dropped : t -> int
(** Frames consumed by an RX doorbell whose DMA write failed (bad/unset
    RX_DMA) — counted, never silently destroyed. *)

val rx_overflow : t -> int
(** Arrivals discarded because the device receive queue was full. *)

val rx_queue_length : t -> int

val next_arrival : t -> int64 option
(** Earliest cycle at which a frame will arrive from the wire. *)

val binding : t -> link_binding
(** The port: the link and the endpoint this NIC is plugged into. *)
