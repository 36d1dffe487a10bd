(** Cycle cost model for the simulated machine.

    All performance results in the benchmark suite are reported in
    simulated cycles charged through this table.  The defaults are chosen
    to match the {e relative} magnitudes reported for hardware
    virtualization (a VM exit round trip is ~an order of magnitude more
    expensive than a native trap; a two-dimensional nested page walk costs
    [(n+1)*m + n] memory references against [n] for a one-dimensional
    walk), not any absolute machine. *)

type t = {
  base_instr : int;  (** every retired instruction *)
  mul : int;  (** extra cycles for multiply *)
  div : int;  (** extra cycles for divide/remainder *)
  mem_access : int;  (** extra cycles for a data RAM access (cache hit) *)
  pt_ref : int;  (** one page-table memory reference during a walk *)
  tlb_fill : int;  (** installing a TLB entry after a walk *)
  trap_enter : int;  (** native trap entry + sret round trip *)
  vmexit : int;  (** guest→VMM world switch + resume *)
  emul_instr : int;  (** VMM software work to emulate one instruction *)
  hypercall : int;  (** paravirtual call round trip (cheaper than exit) *)
  mmio_device : int;  (** device-model work per emulated MMIO access *)
  port_io : int;  (** port I/O device work *)
  irq_inject : int;  (** injecting a virtual interrupt *)
  ctx_switch : int;  (** scheduler vCPU context switch *)
  bt_translate : int;
      (** binary translation: first encounter of a sensitive instruction
          — decode, emit the translated sequence, install it in the
          translation cache *)
  bt_exec : int;
      (** binary translation: executing an already-translated sensitive
          instruction inline (no world switch) *)
}

val default : t

val walk_refs_1d : int
(** Memory references for a one-dimensional (native or shadow) walk:
    [Arch.pt_levels]. *)

val walk_refs_2d : int
(** Memory references for a two-dimensional (nested) walk:
    [(levels + 1) * levels + levels] = 15 for three levels. *)

val fill_cycles : t -> refs:int -> int
(** [fill_cycles t ~refs] — a TLB miss served by a walk of [refs] table
    references, plus installing the entry: what every translator charges
    on a miss. *)
