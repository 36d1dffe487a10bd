(** Pluggable execution engines.

    An engine is a strategy for advancing a hart: it owns the
    fetch/decode/dispatch loop while delegating instruction semantics,
    trap delivery and cost accounting to the shared primitives in
    {!Cpu}.  Two engines ship:

    - {!interp} — the per-instruction reference interpreter
      ({!Cpu.run}), the oracle every lockstep check compares against.
    - {!block} — a decoded-block translation cache ({!Trans_cache}):
      straight-line runs of instructions are decoded once per (physical
      frame, offset, mode, paging) key and replayed from the cache,
      skipping the per-instruction translate/fetch/decode work.  A
      dispatch that leaves the current block finds the next one with
      one cache lookup; hot multi-block paths run as superblock traces
      ({!Trace_ir}).  It is the {!default}.

    {b Equivalence contract.}  Every engine must be observationally
    identical to {!interp}: same architectural state after every stop,
    same stop/exit sequence, same [instret], and the {e same simulated
    cycle counts} — an engine buys wall-clock speed, never simulated
    time.  The block engine preserves cycle accounting by charging the
    block-entry fetch translation exactly where the interpreter would,
    and re-translating once the mode changes or the TLB entry that served
    the fetch is no longer certified ({!Tlb.holds}, via the hart's
    {!Dtlb}, which serves fetches, loads and stores); in the runs it
    skips, the interpreter's own translation is a guaranteed TLB hit
    costing zero cycles.

    Engines hold no architectural state: the cache is rebuilt on demand
    and invalidated by a {!Phys_mem} write listener the engine owns, so
    snapshots and migration save {!Cpu.state} only. *)

type kind = Interp | Block

val default : kind
(** [Block]: what a host, a fleet spec, a bare-metal platform and the
    CLI run unless told otherwise.  [Interp] stays selectable as the
    reference. *)

val kind_name : kind -> string

type hook
(** The block engine's coherence hook (see {!block} and {!release}). *)

type t = {
  kind : kind;
  step_n : Cpu.state -> Cpu.ctx -> fuel:int -> int * Cpu.stop;
      (** Run until [fuel] simulated cycles are consumed or the hart
          stops; the drop-in replacement for {!Cpu.run}. *)
  cache : Trans_cache.t option;
      (** The block engine's cache, exposed so embedders can wire
          revocation hooks and read the counters. *)
  hook : hook;
}

val interp : t
(** Stateless; a single shared instance. *)

val block : unit -> t
(** A fresh block engine with a private cache of 1024 blocks.  The first
    time it is about to insert a block it registers one
    {!Phys_mem.add_write_listener} on the memory the hart executes from
    ([ctx.mem]), which invalidates cached blocks overlapping every write
    — self-modifying code, DMA, image loads, restores.  A machine that
    never runs it carries no listener.  An engine serves one machine:
    every run must execute from the same memory. *)

val release : t -> unit
(** [release t] removes the block engine's write listener, if one was
    registered, and drops every cached block (nothing would keep them
    coherent); the machine owning [t] calls it when it is torn down.  A
    later run starts cold and registers the listener again.  No-op for
    {!interp}. *)

val of_kind : kind -> t

val counters : tlbs:Tlb.t array -> dtlbs:Dtlb.t array -> t -> (string * int) list
(** The statistics counters of a machine's harts, in a fixed order:
    [tlb.*] and [dtlb.*] summed over [tlbs] and [dtlbs], then the block
    engine's [engine.*] cache counters (none for the interpreter).  The
    native CLI prints this list and [Vm.publish_stats] pushes it as
    gauges. *)
