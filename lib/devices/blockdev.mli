(** Block storage device with a register/DMA ("fully emulated") front end.

    The device owns a byte-addressable backing store in 512-byte sectors
    and moves data to and from guest memory through DMA callbacks, so the
    same model serves a native machine (identity DMA into RAM) and a
    virtual machine (DMA through the VMM's physical-to-machine map).  The
    store is a {!Backing.t}: a table of extents, each allocated on its
    first write and zeros until then, so an untouched disk costs only the
    table and a written one only the extents its writes touched.

    Register layout (64-bit, offsets from base):
    - [0x00] CMD     — write 1 = read sectors, 2 = write sectors; starts
      the operation
    - [0x08] SECTOR  — first sector number
    - [0x10] COUNT   — number of sectors
    - [0x18] DMA     — guest-physical buffer address
    - [0x20] STATUS  — 0 idle, 1 busy, 2 done, 3 error (read clears a
      completed status back to idle and acknowledges the interrupt)

    Completion is asynchronous: the operation finishes
    [seek_cycles + bytes * cycles_per_byte] cycles after the command, at
    which point the interrupt line rises until STATUS is read. *)

val sector_bytes : int

val reg_cmd : int64
val reg_sector : int64
val reg_count : int64
val reg_dma : int64
val reg_status : int64

val cmd_read : int64
val cmd_write : int64

val status_idle : int64
val status_busy : int64
val status_done : int64
val status_error : int64

val mmio_base : int64
(** Conventional base address ([0x4000_2000]). *)

type dma = {
  dma_read : int64 -> int -> Bytes.t option;
      (** [dma_read gpa len] fetches guest memory; [None] = bad address *)
  dma_write : int64 -> Bytes.t -> bool;
}

type t

val create : ?sectors:int -> dma -> t
(** [create ~sectors dma] — default 8192 sectors (4 MiB). *)

val sectors : t -> int

val load : t -> sector:int -> string -> unit
(** [load t ~sector s] writes [s] into the backing store directly (host
    side, no latency).

    @raise Invalid_argument if out of range. *)

val read_back : t -> sector:int -> count:int -> string
(** Direct host-side read of the backing store. *)

val pwrite : t -> off:int -> Bytes.t -> pos:int -> len:int -> unit
(** [pwrite t ~off b ~pos ~len] writes [len] bytes of [b] (from [pos])
    into the backing store at byte offset [off] — host side, no latency,
    byte granularity (the durable snapshot store's power-failure model
    truncates writes at arbitrary byte offsets).

    @raise Invalid_argument if out of range. *)

val pread : t -> off:int -> len:int -> Bytes.t
(** Host-side byte-addressed read.

    @raise Invalid_argument if out of range. *)

val pequal : t -> off:int -> Bytes.t -> pos:int -> len:int -> bool
(** [pequal t ~off b ~pos ~len] — the [len] stored bytes at byte offset
    [off] equal [b]'s from [pos].  Host side, compared in place (no copy
    of the stored bytes).

    @raise Invalid_argument if out of range. *)

val pequal_by : t -> off:int -> len:int -> (Bytes.t -> int -> int -> int -> bool) -> bool
(** [pequal_by t ~off ~len eq] — the [len] stored bytes at byte offset
    [off] pass [eq] span by span ({!Backing.equal_by}): each call sees a
    read-only view of the extent holding the span.  Host side; neither
    side is copied.

    @raise Invalid_argument if out of range. *)

val pcopy : t -> src:int -> dst:int -> len:int -> unit
(** [pcopy t ~src ~dst ~len] copies [len] stored bytes from byte offset
    [src] to [dst] on the device, through no intermediate buffer.  Host
    side, no latency.

    @raise Invalid_argument if out of range or the ranges overlap. *)

val capacity_bytes : t -> int
(** Backing-store size in bytes ([sectors * sector_bytes]); asking does
    not allocate the store. *)

val resident_bytes : t -> int
(** Backing-store bytes held in memory: the extents written so far
    ({!Backing.resident_bytes}). *)

val resident_digest : t -> int64
(** {!Backing.resident_digest} of the backing store. *)

val copy : t -> t
(** A fresh, idle device on the same DMA callbacks whose store holds the
    same bytes — copying only the written extents.  Neither the fault
    plan nor any in-flight command carries over. *)

val device : ?base:int64 -> t -> Velum_machine.Bus.device

val state : t -> Velum_util.Serial.io -> now:int64 -> unit
(** Save or load the device state: registers, the command in flight, the
    interrupt line and the counters, not the disk's contents.  A load
    restarts the device clock at [now], the command due as long after it
    as it was after the saved clock. *)

val set_faults : t -> Velum_util.Fault.t -> unit
(** Attach a fault plan.  [Blk_transient] fails one command (a retry may
    succeed); [Blk_permanent] breaks the device — every later command
    completes with [status_error] until the simulation ends. *)

val completed_ops : t -> int
(** Number of operations completed since creation. *)

val error_count : t -> int
(** Number of commands that ended in [status_error] (malformed commands,
    failed DMA, and injected faults alike). *)

val busy : t -> bool

val next_completion : t -> int64 option
(** Cycle at which the in-flight operation finishes, if any (lets a
    waiting machine fast-forward its clock). *)
