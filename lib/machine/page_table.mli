(** Radix page-table walking.

    One walker serves every translator: the native MMU, the shadow
    pager's hardware walk of its own tables and the hypervisor's software
    walk of a guest's tables through its physical-to-machine map.  Tables
    are three levels of 512 8-byte PTEs; leaves live at level 0 (4 KiB
    pages) or level 1 (2 MiB superpages, whose base frame must be
    512-aligned).

    The walker reads each entry through [read] (a table address to the
    entry's {!Pte.Word}), which its caller builds once, and leaves the
    outcome in a {!walk} record the caller owns, so a walk allocates
    nothing. *)

open Velum_isa

val vpn : int64 -> level:int -> int
(** [vpn va ~level] is the 9-bit table index used at [level]
    (level 2 = root for a three-level walk). *)

val canonical : int64 -> bool
(** [canonical va] — the address fits in {!Arch.va_bits} bits (high bits
    all zero; VR64 uses a positive-half-only canonical form). *)

type walk = {
  mutable pte : Pte.Word.t;  (** the leaf entry (after a hit) *)
  mutable pte_addr : int;  (** table address of the leaf entry (after a hit) *)
  mutable level : int;
      (** the leaf's level (0 = 4 KiB, 1 = 2 MiB superpage), or the level
          at which a faulting walk stopped *)
  mutable refs : int;  (** page-table memory references performed *)
  mutable bad_pte : bool;
      (** after a fault: the entry was malformed (a leaf above level 1, a
          misaligned superpage, a pointer at level 0, a non-canonical
          address) rather than merely not present *)
}

val scratch : unit -> walk
(** A fresh outcome record, to be reused across walks. *)

val walk : read:(int -> Pte.Word.t) -> walk -> root_ppn:int -> int64 -> bool
(** [walk ~read w ~root_ppn va] walks to the leaf for [va]: [true] with
    [w.pte], [w.pte_addr], [w.level] and [w.refs] set, or [false] with
    [w.level], [w.refs] and [w.bad_pte] set.  Does not touch A/D bits
    (callers decide).  Non-canonical addresses fault at the root level
    with no reference made and [bad_pte = true]. *)

val leaf_pa : pte:Pte.Word.t -> level:int -> va:int64 -> int
(** [leaf_pa ~pte ~level ~va] composes the physical address of [va]
    through a leaf found at [level]. *)
