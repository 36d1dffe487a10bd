(** Paravirtual block device over a {!Virtio_ring}.

    Register layout (offsets from base):
    - [0x00] KICK — any write makes the device consume every pending
      descriptor (the single exit per batch)
    - [0x08] ISR — reads 1 while a completion interrupt is pending;
      reading acknowledges it
    - [0x10] RING_BASE / [0x18] RING_SIZE — written once by the guest
      driver before first use

    Request kinds: [1] read sectors, [2] write sectors; [arg] is the
    first sector; the data buffer must be [len] bytes ([len] a multiple
    of the sector size).  On completion the device writes one status byte
    (0 = OK, 1 = error) at [status_gpa] and raises the interrupt.

    The latency model matches {!Blockdev} (one seek per {e batch} plus a
    per-byte cost) so emulated-vs-paravirtual comparisons isolate the
    exit overhead rather than different storage speeds.  Like
    {!Blockdev}, the backing store is a {!Backing.t} whose extents are
    allocated on their first write. *)

val reg_kick : int64
val reg_isr : int64
val reg_ring_base : int64
val reg_ring_size : int64

val kind_read : int64
val kind_write : int64

val mmio_base : int64
(** Conventional base address ([0x4000_3000]). *)

type t

val create : ?sectors:int -> Virtio_ring.guest_mem -> t

val sectors : t -> int
val load : t -> sector:int -> string -> unit
val read_back : t -> sector:int -> count:int -> string

val resident_bytes : t -> int
(** Backing-store bytes held in memory ({!Backing.resident_bytes}). *)

val state : t -> Velum_util.Serial.io -> now:int64 -> ram_bytes:int -> unit
(** As {!Blockdev.state}, with the ring layout and the batches in
    flight.  A loaded batch needs a ring whose header lies in the
    [ram_bytes] of guest RAM, and no more entries than the ring has
    slots. *)

val set_faults : t -> Velum_util.Fault.t -> unit
(** Attach a fault plan.  [Blk_transient] fails individual descriptors
    (status byte 1); [Blk_permanent] breaks the device for good. *)

val device : ?base:int64 -> t -> Velum_machine.Bus.device
val completed_ops : t -> int

val error_count : t -> int
(** Descriptors completed with status byte 1. *)

val kicks : t -> int
val next_completion : t -> int64 option
