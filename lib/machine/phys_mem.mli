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

    @raise Invalid_argument if [frames <= 0] or the RAM would reach
    2^48 bytes (a translation packs physical addresses into 48 bits,
    see {!Cpu.xl_make}). *)

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

val read_at : t -> int -> Velum_isa.Instr.width -> int64
val write_at : t -> int -> Velum_isa.Instr.width -> int64 -> unit
(** {!read} and {!write} at an [int] address, as a translation result
    carries it: same bytes, same notifications, and the same
    [Invalid_argument] when out of range. *)

val read_word : t -> int -> int
(** [read_word t pa] is the 8-byte word at [pa] as an [int]: its low 63
    bits, unboxed (a page-table entry as {!Velum_isa.Pte.Word}).

    @raise Invalid_argument if out of range. *)

val load_bytes : t -> pa:int64 -> ?pos:int -> ?len:int -> Bytes.t -> unit
(** [load_bytes t ~pa ~pos ~len b] copies [len] bytes of [b] from [pos]
    (default: all of [b]) into memory at [pa], with one notification for
    the whole range — boot images, and guest-memory writes from the VMM
    and devices.

    @raise Invalid_argument if the range leaves [b] or RAM. *)

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

val frame_view : t -> ppn:int -> Bytes.t
(** [frame_view t ~ppn] is frame [ppn]'s 4096 bytes in place, read-only:
    the frame's own page, or the page every unbacked frame shares.  The
    caller must not write it, and should read it at once: the frame's
    next write may give it a page of its own.  Compares a frame against
    other bytes without copying it out; [ppn] is an [int], so asking
    boxes nothing.

    @raise Invalid_argument if [ppn] is not a frame. *)

val frame_backed : t -> ppn:int -> bool
(** [frame_backed t ~ppn]: the frame has a page of its own.  An unbacked
    frame reads as zeros, so a reader can take its bytes as zeros
    without reading them.

    @raise Invalid_argument if [ppn] is not a frame. *)

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
    COW copies, hypervisor swap-in and restore paths.

    {b The write watch.}  Most guest stores hit pure data frames no
    listener cares about, and many of the rest hit the data half of a
    frame whose other half holds code.  So each frame carries one watch
    byte, and a write reaches the listeners only while its frame is
    watched and the write is not {e quiet}.  Each listener answers with
    the byte range of the frame it still wants ({!want}; [0] is
    nothing).  The union of the answers becomes the frame's quiet range:
    a small table, 16 slots direct-mapped by frame number, remembers it,
    and a later write to the frame that misses the range is quiet and
    reaches nobody, at the cost of two compares.  When every listener
    answers [0] the frame stops being watched, and its writes cost one
    byte load.  Either way a listener gets no more of the frame's writes
    outside its answer until something calls {!watch} (or {!watch_all})
    again, so it must call {!watch} itself before it next needs them —
    the translation cache's engine does so whenever it inserts a block
    decoded from the frame, and the dirty tracker calls {!watch_all}
    whenever it opens a new write epoch.  {!watch} forgets the frame's
    quiet range and {!watch_all} forgets all of them.  A frame whose
    slot another frame has taken simply has its writes delivered again.
    Every frame starts watched, and registering a listener watches them
    all again.  With no listeners the notification costs one list
    match. *)

val want : lo:int -> hi:int -> int
(** [want ~lo ~hi] is a listener's answer for the byte range [\[lo, hi)]
    of a frame, clamped to the frame, as an immediate [int]:
    [0] when the range is empty, [page_size] for the whole frame. *)

val add_write_listener : t -> (ppn:int64 -> lo:int -> hi:int -> int) -> int
(** Returns a handle for {!remove_write_listener}, and watches every
    frame, so the new listener sees the first write to each of them.
    The listener runs synchronously on each delivered write, once per
    touched frame, with the written byte subrange [\[lo, hi)] of that
    frame (whole-frame operations report [0, page_size)).  The range
    lets callers that cache derived views of code skip invalidation when
    a write lands in a disjoint part of the frame — e.g. a stack or data
    area sharing a page with code.  It answers the range of the frame
    whose writes it still wants, built by {!want} (see above).  The
    listener must be cheap and must not write memory itself. *)

val remove_write_listener : t -> int -> unit

val listener_count : t -> int
(** Listeners currently registered. *)

val watch : t -> ppn:int64 -> unit
(** [watch t ~ppn] makes the next write to frame [ppn] reach the
    listeners again, wherever it lands in the frame (a frame outside the
    memory is ignored). *)

val watch_all : t -> unit
(** {!watch} every frame. *)

val watched : t -> ppn:int64 -> bool
(** Frame [ppn]'s watch byte is set: some listener still wants part of
    its writes (a write outside its quiet range still reaches none). *)

val deliveries : t -> int
(** Writes delivered to the listeners so far, counted once per touched
    frame however many listeners ran. *)

val quiet_skips : t -> int
(** Writes to a watched frame that missed its quiet range and so reached
    no listener. *)
