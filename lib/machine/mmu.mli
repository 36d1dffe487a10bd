(** Native one-dimensional MMU: satp-driven page-table walks with TLB
    caching and architectural A/D-bit maintenance.

    The hypervisor builds its own translators (shadow and nested) with the
    same {!Cpu.ctx} signature; this module is the translator a bare-metal
    machine uses, and also the reference model the virtualized translators
    are tested against. *)

open Velum_isa

type t

val create :
  mem:Phys_mem.t -> tlb:Tlb.t -> cost:Cost_model.t -> get_satp:(unit -> int64) -> t
(** [create ~mem ~tlb ~cost ~get_satp] — [get_satp] reads the hart's
    current satp so the translator always follows the live root. *)

val classify_pa : Phys_mem.t -> int64 -> bytes:int -> [ `Ram | `Mmio | `Bad ]
(** [classify_pa mem pa ~bytes] — where a physical access of [bytes]
    bytes at [pa] lands: the device window, RAM (entirely inside it), or
    nowhere.  Any address RAM cannot hold whole is [`Bad], including
    those where [pa + bytes] would overflow. *)

val translate : t -> access:Arch.access -> user:bool -> int64 -> int
(** Architectural translation, as a packed {!Cpu.xl_make} result or a
    fault code:

    - satp disabled: identity mapping; addresses in the device window are
      MMIO, addresses beyond RAM fault with {!Cpu.xl_access}.
    - satp enabled: TLB hit (with permissions and, for stores, the dirty
      bit) is free; a miss walks the tables ([pt_ref] cycles per
      reference plus [tlb_fill]), sets the accessed bit (and dirty on
      stores) and installs the entry.  Permission failures and
      not-present entries fault with {!Cpu.xl_page}; leaves pointing
      outside RAM and the device window fault with {!Cpu.xl_access}. *)

val flush : t -> unit
(** Flush the TLB (satp write / sfence). *)

val walk_count : t -> int
(** Number of table walks performed (TLB misses + dirty upgrades). *)
