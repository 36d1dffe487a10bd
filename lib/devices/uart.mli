(** Console UART.

    Register layout (64-bit registers, offsets from the device base):
    - [0x00] DATA — write: transmit the low byte; read: pop one received
      byte (0 when the receive buffer is empty)
    - [0x08] STATUS — bit 0: receive data ready; bit 1: transmit ready
      (always set)

    The same device also answers port I/O: port {!data_port} maps to
    DATA and port {!status_port} to STATUS.  A pending interrupt is
    raised while the receive buffer is non-empty. *)

val data_port : int
val status_port : int

val reg_data : int64
val reg_status : int64

type t

val create : ?rx_capacity:int -> unit -> t

val mmio_base : int64
(** Conventional base address ([0x4000_0000]). *)

val device : ?base:int64 -> t -> Velum_machine.Bus.device
(** [device t] wraps the UART for bus attachment. *)

val feed_input : t -> string -> unit
(** [feed_input t s] appends [s] to the receive buffer (dropping bytes
    beyond capacity). *)

val output : t -> string
(** All bytes transmitted so far. *)

val output_length : t -> int

val clear_output : t -> unit

val state : t -> Velum_util.Serial.io -> unit
(** Save or load the device state: console output and unread input. *)

val read_reg : t -> int64 -> int64
(** Register access used by both the MMIO wrapper and port handlers. *)

val write_reg : t -> int64 -> int64 -> unit

val rx_pending : t -> bool
