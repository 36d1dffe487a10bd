(** Dirty-frame tracking for incremental checkpoints: one tracker per
    host, shared by every checkpointing consumer on it.

    The tracker rides the same {!Velum_machine.Phys_mem} write listener
    hook the translation cache uses for SMC invalidation: every guest
    store, DMA write, or VMM poke into physical memory — and every
    whole-frame operation (allocation zero-fill, swap-in, COW copy,
    restore) — stamps the frame with the current write epoch.  Two
    views read those stamps:

    - a {!cursor} counts the frames dirtied since its last {!drain}.
      The HA supervisor uses one to decide whether a cadence tick has
      anything to checkpoint (instruction progress alone misses device
      DMA, and a pure-idle guest needs no commit at all) and to report
      how many frames of churn each checkpoint covered;
    - a {!mark} names an instant, and {!written_since} says whether a
      frame was written after it.  {!Snapshot.source} takes a mark per
      capture, so the next commit of the same stream can skip hashing
      every chunk whose pages kept their frame and were not written
      since — the store still verifies those chunks byte for byte. *)

type t

val attach : Velum_machine.Phys_mem.t -> t
(** Register the write listener on [mem].  Call once per memory —
    {!Host.churn} does, on first use — so a host carries at most one. *)

type cursor

val cursor : t -> cursor
(** A new consumer view with every frame initially clean (the first
    checkpoint after it is driven by instruction progress, which a
    fresh boot always shows). *)

val churned : cursor -> int
(** Frames dirtied since the cursor's last {!drain} (or creation). *)

val drain : cursor -> int
(** Mark every frame clean for this cursor and return how many were
    dirty — called by the supervisor at each committed checkpoint. *)

val mark : t -> int
(** The current instant: frames written from now on are
    {!written_since} it, frames written before are not. *)

val written_since : t -> mark:int -> int64 -> bool
(** [written_since t ~mark ppn] — frame [ppn] was written after [mark]
    (frames outside the memory count as written). *)
