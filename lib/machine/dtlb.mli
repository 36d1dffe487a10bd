(** Data-side micro-TLB.

    A small direct-mapped array of recent data (load/store) translations
    sitting in front of the full translate path, for use by execution
    engines that must stay cycle- and behaviour-lockstep with the
    interpreter.  Every cached entry is verified at fill time against
    the backing {!Tlb} — the entry is only stored if the TLB would, on
    its own, satisfy the same access as a zero-cycle hit — and is
    consulted only while the TLB entry it was verified against is still
    there: its slot's version is unchanged ({!Tlb.holds}), or, as the
    one-compare fast path and for superpage entries, {!Tlb.generation}
    is.  A micro-TLB hit is
    therefore observationally identical to the real translate call it
    replaces (same physical address, zero charged cycles, one
    {!Tlb.note_hit}), just without the full MMU/nested/shadow call
    chain. *)

type t

val create : tlb:Tlb.t -> t
(** [create ~tlb] makes an empty micro-TLB validated against [tlb]. *)

val backing : t -> Tlb.t
val generation : t -> int
(** Current generation of the backing TLB (see {!Tlb.generation}). *)

val lookup : t -> access:Velum_isa.Arch.access -> user:bool -> int64 -> int
(** [lookup t ~access ~user va] returns the physical address when the
    cached translation for [va]'s page is still certified by the backing
    TLB, and [-1] otherwise; a hit replicates the
    [note_hit] the real hit would have recorded.  Fetch accesses never
    hit. *)

val fill : t -> access:Velum_isa.Arch.access -> user:bool -> va:int64 -> pa:int -> unit
(** [fill t ~access ~user ~va ~pa] caches a successful RAM translation,
    provided the backing TLB verifiably holds a matching entry.  MMIO
    and TLB-bypassing translations are never cached. *)

val hits : t -> int
val misses : t -> int
val fills : t -> int
