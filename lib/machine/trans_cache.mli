(** Decoded-block translation cache.

    The block execution engine ({!Engine}) avoids the per-instruction
    fetch/decode work of the reference interpreter by caching decoded
    straight-line blocks ({!Velum_isa.Block}).  Entries are keyed by
    where the code {e physically} lives and the execution regime:

    {v (physical frame, byte offset in frame, privilege mode, paging on) v}

    Keying by machine frame (not virtual PC) makes the cache immune to
    remapping: changing a translation never changes the bytes a frame
    holds, so [satp] writes and TLB flushes need not drop entries — only
    {e writes} to a cached frame do (self-modifying code, DMA, swap-in,
    COW copies, migration restores).  The mode and paging bits are in
    the key because future engines may specialise blocks per regime, and
    because they make the key a faithful summary of everything fetch
    depends on besides the bytes.

    The engine resolves every dispatch that leaves its current block
    with one {!find}; blocks hold no links to each other, so nothing
    but the table (and the traces built over it) can reach a block.
    Eviction is LRU over a bounded number of blocks.  Invalidation marks
    entries dead in place (so an engine holding a direct reference to a
    block observes the invalidation mid-block) and unlinks them. *)

open Velum_isa

type key

type block = {
  key : key;  (** the key this block was interned under *)
  insns : Instr.t array;
  start_off : int;  (** byte offset of [insns.(0)] within its frame *)
  mutable valid : bool;
      (** cleared by invalidation; engines must re-fetch when false *)
  mutable stamp : int;  (** LRU clock *)
  mutable heat : int;
      (** dispatch count since the last promotion attempt; the engine
          bumps it and calls {!try_promote} when it crosses
          {!promote_threshold} *)
  mutable hot_fall : int;
      (** retired exits through the terminator that fell through; the
          engine bumps it at each block end *)
  mutable hot_taken : int;  (** retired exits that took the terminator *)
  mutable trace_at : trace option;
      (** the superblock trace headed by this block, if one is
          installed; dispatch checks it right after block resolution *)
  mutable in_traces : trace list;
      (** every trace this block is a constituent of — invalidating,
          evicting or replacing the block severs them all *)
}

(** A compiled superblock trace: the lowered program, the cost model its
    per-op cycle constants were baked against (dispatch requires
    physical equality with the live context's model), and the
    constituent blocks (head first) whose bytes it was built from.
    Liveness is the shared [t_prog.live] ref — severed in place so an
    engine mid-trace observes it after the very store that killed it. *)
and trace = {
  t_prog : Trace_ir.prog;
  t_cost : Cost_model.t;
  t_blocks : block list;
}

type t

val create : ?capacity:int -> unit -> t
(** [capacity] bounds the number of cached blocks (default 1024). *)

val key : ppn:int64 -> off:int -> user:bool -> paging:bool -> key
(** [off] is the byte offset of the block start within frame [ppn]. *)

val same_regime_key : block -> key -> bool
(** The block's frame/mode/paging bits match [key]'s (offset ignored). *)

val find : t -> key -> block option
(** Bumps the LRU stamp and the hit counter on success; counts a miss
    otherwise. *)

val insert : t -> key:key -> ppn:int64 -> insns:Instr.t array -> start_off:int -> block
(** Caches a freshly decoded block, evicting the LRU entry when at
    capacity.  Returns the interned block. *)

val invalidate_range : t -> ppn:int64 -> lo:int -> hi:int -> int
(** Drop (and mark dead) every block of frame [ppn] whose decoded span
    overlaps the byte range [\[lo, hi)] — called when exactly those
    bytes changed.  Blocks in disjoint parts of the frame survive, so
    data/stack writes into a page that also holds code do not throw the
    code's blocks away.  Returns the byte span of the blocks frame [ppn]
    still holds afterwards, as {!Phys_mem.want} packs it ([0] when none
    is left): what a write listener answers, so that later writes to the
    frame outside the span are quiet (see {!Phys_mem.add_write_listener});
    one table lookup serves both.  The span is the union of every block
    inserted since the frame last held none, so it may cover dropped
    blocks too, and an insert widens it: the engine calls
    {!Phys_mem.watch} after each insert. *)

val invalidate_frame : t -> ppn:int64 -> unit
(** [invalidate_range] over the whole frame — for events where the
    changed range is unknown (frame replaced, revoked, or restored). *)

(** {1 Superblock traces} *)

val promote_threshold : int
(** Dispatches of a block between promotion attempts (engines compare
    [heat] against this). *)

val try_promote : t -> head:block -> cost:Cost_model.t -> bool
(** Promote the hot path headed at [head] into a trace: walk the
    predicted continuation (the more often taken branch direction by
    [hot_taken]/[hot_fall], static jal targets)
    up to the size caps, lower it via {!Trace_ir.build}, and install the
    result on [head.trace_at] (registering every constituent's
    [in_traces] and refreshing their LRU stamps).  Returns [false] when
    [head] is invalid, already promoted, or the path is not lowerable —
    promotion is always a best-effort optimisation, never an error. *)

val note_trace_follow : t -> unit
(** Count a dispatch absorbed by executing a trace. *)

val note_trace_side_exit : t -> unit
(** Count a trace side exit: a trace left early (through a branch
    direction it was not built along, at a misaligned access, after
    mid-run severing, or with its code page lost to a translation), or
    a zero-progress bail. *)

val flush : t -> unit
(** Drop everything (e.g. on reset). *)

(** {1 Counters} *)

val entries : t -> int
val hits : t -> int
val misses : t -> int
val invalidations : t -> int
(** Blocks dropped by {!invalidate_range}/{!invalidate_frame}. *)

val evictions : t -> int

val traces_built : t -> int
(** Superblock traces compiled by {!try_promote}. *)

val trace_follows : t -> int
(** Dispatches served by executing a trace (see {!note_trace_follow}). *)

val traces_severed : t -> int
(** Traces killed because a constituent block was invalidated, evicted
    or replaced (SMC, frame revocation, eviction, {!flush}). *)

val trace_side_exits : t -> int
(** Early exits out of executing traces (see {!note_trace_side_exit}). *)
