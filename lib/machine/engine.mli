(** Pluggable execution engines.

    An engine is a strategy for advancing a hart: it owns the
    fetch/decode/dispatch loop while delegating instruction semantics,
    trap delivery and cost accounting to the shared primitives in
    {!Cpu}.  Two engines ship:

    - {!interp} — the per-instruction reference interpreter
      ({!Cpu.run}).
    - {!block} — a decoded-block translation cache ({!Trans_cache}):
      straight-line runs of instructions are decoded once per (physical
      frame, offset, mode, paging) key and replayed from the cache,
      skipping the per-instruction translate/fetch/decode work.

    {b Equivalence contract.}  Every engine must be observationally
    identical to {!interp}: same architectural state after every stop,
    same stop/exit sequence, same [instret], and the {e same simulated
    cycle counts} — an engine buys wall-clock speed, never simulated
    time.  The block engine preserves cycle accounting by charging the
    block-entry fetch translation exactly where the interpreter would,
    and re-translating after any instruction that could disturb a
    translation ({!Velum_isa.Block.preserves_translation}); in the runs
    it skips, the interpreter's own translation is a guaranteed TLB hit
    costing zero cycles.

    Engines hold no architectural state: the cache is rebuilt on demand
    and invalidated by {!Phys_mem} write listeners, so snapshots and
    migration copy {!Cpu.state} only (see {!Cpu.copy_state}). *)

type kind = Interp | Block

val kind_name : kind -> string

type t = {
  kind : kind;
  step_n : Cpu.state -> Cpu.ctx -> fuel:int -> int * Cpu.stop;
      (** Run until [fuel] simulated cycles are consumed or the hart
          stops; the drop-in replacement for {!Cpu.run}. *)
  cache : Trans_cache.t option;
      (** The block engine's cache, exposed so embedders can wire
          invalidation (memory-write listeners, revocation hooks) and
          read the counters. *)
}

val interp : t
(** Stateless; a single shared instance. *)

val block : unit -> t
(** A fresh block engine with a private cache of 1024 blocks.  The
    embedder must register a {!Phys_mem.add_write_listener} on the
    machine memory the hart executes from, forwarding frame writes to
    {!Trans_cache.invalidate_frame} — without it, self-modifying code
    would execute stale blocks. *)

val of_kind : kind -> t

val counters : tlbs:Tlb.t array -> dtlbs:Dtlb.t array -> t -> (string * int) list
(** The statistics counters of a machine's harts, in a fixed order:
    [tlb.*] and [dtlb.*] summed over [tlbs] and [dtlbs], then the block
    engine's [engine.*] cache counters (none for the interpreter).  The
    native CLI prints this list and [Vm.publish_stats] pushes it as
    gauges. *)
