(** Micro-TLB for fetches and data.

    Two small direct-mapped arrays of recent translations, 16 entries
    for fetches and 32 for loads and stores, sitting in front of the full
    translate path, for use by execution engines that must stay cycle-
    and behaviour-lockstep with the interpreter.  Every cached entry is
    verified at fill time against the backing {!Tlb} — the entry is only
    stored if the TLB would, on its own, satisfy the same access as a
    zero-cycle hit — and is consulted only while the TLB entry it was
    verified against is still there: its slot's version is unchanged
    ({!Tlb.holds}), or, as the one-compare fast path and for superpage
    entries, {!Tlb.generation} is.  A micro-TLB hit is therefore
    observationally identical to the real translate call it replaces
    (same frame, zero charged cycles, one {!Tlb.note_hit}), just without
    the full MMU/nested/shadow call chain. *)

type t

val create : tlb:Tlb.t -> t
(** [create ~tlb] makes an empty micro-TLB validated against [tlb]. *)

val generation : t -> int
(** Current generation of the backing TLB (see {!Tlb.generation}). *)

val lookup : t -> access:Velum_isa.Arch.access -> user:bool -> int -> int
(** [lookup t ~access ~user vpn] returns the 4 KiB frame of page [vpn]
    when its cached translation for [access] is still certified by the
    backing TLB, and [-1] otherwise; a hit replicates the [note_hit] the
    real hit would have recorded.  The caller checks alignment: a hit
    says nothing about the offset within the page. *)

val fill : t -> access:Velum_isa.Arch.access -> user:bool -> va:int64 -> unit
(** [fill t ~access ~user ~va], after a successful translation of [va],
    caches the frame {!Tlb.probe} says the backing TLB serves [access]
    from, when it serves it from RAM.  MMIO and TLB-bypassing
    translations are never cached. *)

val hits : t -> int
val misses : t -> int
val fills : t -> int
