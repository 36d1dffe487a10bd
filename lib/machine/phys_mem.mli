(** Simulated physical (machine) memory.

    A fixed table of 4 KiB frames.  On a hypervisor host this is the
    machine memory that the VMM's frame allocator hands out to guests; on
    a native machine it is simply RAM.  Addresses are byte physical
    addresses starting at zero.

    Memory is backed lazily, per frame: every frame reads as zeros from
    one shared page until its first mutating operation gives it a page of
    its own, which it then keeps.  Zero-filling a frame, or copying an
    unwritten frame over it, never backs it and never gives a page back
    (a backed frame is cleared in place).  Only {!resident_bytes} can
    tell the difference. *)

type t

val create : frames:int -> t
(** [create ~frames] is [frames] zeroed 4 KiB frames, none backed yet.

    @raise Invalid_argument if [frames <= 0] or
    [frames > max_int / page_size] (the byte size would overflow). *)

val frames : t -> int
val size_bytes : t -> int

val resident_bytes : t -> int
(** [resident_bytes t] is 4096 × the frames that have their own page:
    the host memory this RAM really holds. *)

val in_range : t -> pa:int64 -> bytes:int -> bool
(** [in_range t ~pa ~bytes] — the access lies entirely inside RAM. *)

val read : t -> int64 -> Velum_isa.Instr.width -> int64
(** [read t pa w] reads little-endian, zero-extended.

    @raise Invalid_argument if out of range. *)

val write : t -> int64 -> Velum_isa.Instr.width -> int64 -> unit
(** [write t pa w v] writes the low bytes of [v] little-endian. *)

val load_bytes : t -> pa:int64 -> Bytes.t -> unit
(** [load_bytes t ~pa b] copies [b] into memory at [pa] (used to load
    boot images). *)

val frame_copy : t -> src_ppn:int64 -> dst_ppn:int64 -> unit
(** [frame_copy t ~src_ppn ~dst_ppn] copies one whole frame (an
    unbacked source leaves an unbacked destination unbacked). *)

val frame_fill : t -> ppn:int64 -> char -> unit
(** [frame_fill t ~ppn c] fills a frame with byte [c]; filling with
    ['\000'] backs nothing. *)

val frame_read : t -> ppn:int64 -> Bytes.t
(** [frame_read t ~ppn] is a fresh copy of the frame's 4096 bytes. *)

val blit_out : t -> ppn:int64 -> off:int -> Bytes.t -> pos:int -> len:int -> unit
(** [blit_out t ~ppn ~off dst ~pos ~len] copies [len] bytes of frame
    [ppn], starting [off] bytes in, into [dst] at [pos] — a read without
    the fresh buffer {!frame_read} allocates.

    @raise Invalid_argument if the range leaves the frame or [dst]. *)

val frame_write : t -> ppn:int64 -> Bytes.t -> unit
(** [frame_write t ~ppn b] overwrites the frame with [b] (must be exactly
    4096 bytes). *)

val frame_hash : t -> ppn:int64 -> int64
(** [frame_hash t ~ppn] is the FNV-1a digest of the frame contents; used
    by content-based page sharing.  O(1) on an unbacked frame. *)

val frame_is_zero : t -> ppn:int64 -> bool
(** [frame_is_zero t ~ppn] — every byte of the frame is zero (zero-page
    detection for migration compression).  O(1) on an unbacked frame. *)

val frame_equal : t -> int64 -> int64 -> bool
(** [frame_equal t a b] compares two frames byte for byte. *)

val blit_between : src:t -> src_ppn:int64 -> dst:t -> dst_ppn:int64 -> unit
(** [blit_between ~src ~src_ppn ~dst ~dst_ppn] copies a frame across two
    memories (live migration between hosts). *)

(** {1 Write listeners}

    Every mutation — CPU stores, image loads, frame copies/fills,
    swap-ins, migration blits — reports the frames it touched to the
    registered listeners, {e after} the bytes changed.  This is the
    coherence backbone of the decoded-block translation cache: a
    listener invalidates cached blocks overlapping any byte range whose
    contents changed, which uniformly covers self-modifying code, DMA,
    COW copies, hypervisor swap-in and restore paths.  With no listeners
    registered the notification costs one list match on the store fast
    path. *)

val add_write_listener : t -> (ppn:int64 -> lo:int -> hi:int -> unit) -> int
(** Returns a handle for {!remove_write_listener}.  The listener runs
    synchronously on every write, once per touched frame, with the
    written byte subrange [\[lo, hi)] of that frame (whole-frame
    operations report [0, page_size)].  The range lets callers that
    cache derived views of code skip invalidation when a write lands in
    a disjoint part of the frame — e.g. a stack or data area sharing a
    page with code.  The listener must be cheap and must not write
    memory itself. *)

val remove_write_listener : t -> int -> unit

val listener_count : t -> int
(** Listeners currently registered. *)
