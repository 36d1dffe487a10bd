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
(** 2-D walks started (guest paging enabled), faulting ones included. *)

(** What one walk found. *)
type walk_outcome =
  | W_ram of { hpa_ppn : int64; perms : Pte.perms; dirty_ok : bool; refs : int }
      (** the machine frame, the effective permissions (the guest leaf's,
          writable only if the p2m entry is writable and not COW), whether
          stores may hit without a fault, and the memory references made:
          [entries read × (1 + Arch.pt_levels) + Arch.pt_levels] *)
  | W_mmio of { gpa : int64 }  (** the target is in the device window *)
  | W_guest_fault  (** the guest's tables deny the access *)
  | W_host_fault of { gfn : int64 }
      (** the p2m entry of a table or target frame needs hypervisor work
          (Swapped, Ballooned, Remote, COW for an A/D update, or not
          writable for a store) *)
  | W_bad  (** a table or target gfn is Absent or beyond the VM's memory *)

val walk : t -> guest_satp:int64 -> access:Arch.access -> user:bool -> int64 -> walk_outcome
(** [walk t ~guest_satp ~access ~user va] is the walk behind {!translate}
    and {!classify_fault}.  With guest paging enabled it walks the
    guest's tables through {!Page_table.walk}, reading each entry through
    the p2m, then sets the leaf's A/D bits in guest memory (reporting the
    table gfn to [mark_ad_write]) before looking the target up. *)

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
