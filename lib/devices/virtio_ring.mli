(** Shared-memory descriptor ring (virtio-style paravirtual transport).

    The ring lives in guest memory.  The guest publishes request
    descriptors, bumps the available index, and {e kicks} the device once
    per batch with a single doorbell write — one VM exit amortized over
    the whole batch, versus one exit per register write on the emulated
    path.  The device consumes descriptors up to the available index and
    bumps the used index as it completes them.

    Memory layout at the ring base (all fields 64-bit little-endian):
    {v
      0x00  avail_idx   free-running, written by the guest
      0x08  used_idx    free-running, written by the device
      0x10  desc[size]  40-byte descriptors:
              +0   data buffer guest-physical address
              +8   data length in bytes
              +16  request kind (device-specific)
              +24  argument (device-specific, e.g. sector)
              +32  status byte guest-physical address
    v} *)

type guest_mem = {
  read_u64 : int64 -> int64 option;
  write_u64 : int64 -> int64 -> bool;
  read_bytes : int64 -> int -> Bytes.t option;
  write_bytes : int64 -> Bytes.t -> bool;
}
(** Guest-physical memory accessors ([None]/[false] = bad address). *)

type desc = {
  data_gpa : int64;
  data_len : int;
  kind : int64;
  arg : int64;
  status_gpa : int64;
}

val header_bytes : int

type t

val create : mem:guest_mem -> base:int64 -> size:int -> t
(** [create ~mem ~base ~size] — [size] descriptors; the guest must have
    zeroed the header.

    @raise Invalid_argument if [size] is not a positive power of two. *)

val size : t -> int
val base : t -> int64

val avail_idx : t -> int64
(** Current available index as published by the guest ([0] on a DMA
    error). *)

val used_idx : t -> int64

val pending_range : t -> int64 * int
(** [pending_range t] is [(used, n)]: the [n] slots at free-running
    indexes [used, used + n) are published and not yet completed.  [n]
    is [0] when [avail_idx - used_idx] is not in [\[1, size\]] (nothing
    published, or a corrupt index).  Reads the two indexes, no
    descriptor. *)

val read_desc : t -> int64 -> desc option
(** [read_desc t idx] reads the descriptor of the slot at free-running
    index [idx] — [None] when the slot is malformed (a descriptor-word
    read failed).  A device that walks {!pending_range} itself reads
    each slot when it uses it, so a delivery into an earlier slot's
    buffer is visible to the read of a later slot, as on a real
    device. *)

val pending_slots : t -> (int64 * desc option) list
(** [pending_slots t] covers {e every} slot of {!pending_range}, in
    order, pairing each free-running index with its {!read_desc} —
    every descriptor read before the caller writes anything.  Devices
    must consume this (or walk {!pending_range}), not {!pending}: the
    used index is in-order, so a skipped slot must still be completed
    (see {!fail_slot}) or the ring desynchronizes forever.  TX and
    virtio-blk use it: they consume every slot anyway. *)

val pending : t -> desc list
(** [pending t] is [pending_slots t] with malformed slots dropped —
    convenient for tests and read-only inspection.  Devices that
    [complete ~count] with this list's length will desynchronize
    [used_idx] from [avail_idx] whenever a slot was malformed; drive
    completion from {!pending_slots} instead. *)

val complete : t -> count:int -> unit
(** [complete t ~count] advances the used index by [count].  [count]
    must cover malformed slots too — it is a slot count, not a
    success count. *)

val fail_slot : t -> int64 -> unit
(** [fail_slot t idx] writes the error status byte ([0x01]) for the
    (possibly malformed) slot at free-running index [idx], best-effort:
    if even the status pointer word is unreadable there is nowhere to
    write, and the slot is advanced past silently by the caller's
    [complete]. *)

val error_status : char
(** The status byte {!fail_slot} writes. *)

(** {1 Guest-side helpers}

    These run with host visibility (no simulated cycles) and exist for
    the host-side of tests and for building guest images; guest code
    performs the same writes with ordinary stores. *)

val guest_push : t -> desc -> bool
(** [guest_push t d] writes the next descriptor slot and bumps
    [avail_idx]; [false] when the ring is full. *)

val slot_addr : t -> int64 -> int64
(** [slot_addr t idx] is the guest-physical address of the descriptor
    slot for (free-running) index [idx]. *)
