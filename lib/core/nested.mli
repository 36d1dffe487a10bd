(** Nested (two-dimensional) paging.

    Models EPT/NPT hardware: the guest manages its own page tables over
    guest-physical addresses and the MMU composes them with the
    hypervisor's physical-to-machine map on every TLB miss.  Guest
    [satp] writes and PTE updates need no exits; the price is the 2-D
    walk — every guest-level table reference itself requires a host-level
    translation, so a miss costs [(n+1)·m + n] memory references instead
    of [n].

    Host-level conditions (not-present, COW, write-protection for dirty
    logging, swapped, ballooned, post-copy remote) surface as {!Cpu.xl_page}
    faults that the hypervisor services without the guest noticing. *)

open Velum_isa
open Velum_machine

type env = {
  mem : Phys_mem.t;
  cost : Cost_model.t;
  p2m : P2m.t;
  mark_ad_write : int64 -> unit;
      (** called when the walker hardware sets A/D bits in a guest table
          page (gfn): the page must be marked dirty for migration *)
}

type t

val create : env -> t

val walks : t -> int

val translate :
  t ->
  guest_satp:int64 ->
  tlb:Tlb.t ->
  access:Arch.access ->
  user:bool ->
  int64 ->
  int
(** Full two-dimensional translation.  With guest paging disabled the
    guest-virtual address {e is} the guest-physical address and only the
    host dimension is walked.  Permission outcomes:

    - guest-level denial (invalid/permission PTE) → {!Cpu.xl_page} (the
      hypervisor reflects a fault into the guest);
    - host-level denial (p2m not Present-writable as needed) → {!Cpu.xl_page}
      (the hypervisor repairs and resumes);
    - guest-physical address in the device window → a translation with
      the MMIO flag set;
    - guest-physical address beyond the VM's memory → {!Cpu.xl_access}. *)

type classify =
  | Guest_level  (** the guest's own tables deny the access — reflect *)
  | Host_level of { gfn : int64 }  (** p2m work needed on this frame *)
  | Mmio of { gpa : int64 }  (** should not reach the fault path *)
  | Bad of { gpa : int64 }  (** guest mapped a nonexistent address *)

val classify_fault :
  t -> guest_satp:int64 -> access:Arch.access -> user:bool -> va:int64 -> classify
(** Software re-walk used by the hypervisor's fault handler to decide
    what a {!Cpu.xl_page} result from {!translate} means. *)
