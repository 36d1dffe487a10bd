(** Shadow page tables (software MMU).

    In shadow mode the hardware TLB walks {e host-side} tables that map
    guest-virtual addresses directly to machine frames.  The hypervisor
    keeps one shadow table page {e paired} with every guest page-table
    page it has seen, mirrors guest leaves into shadow leaves on demand
    (filling on the resulting hidden page faults), and write-protects the
    guest's page-table frames so every guest PTE update traps and can be
    applied to both trees.

    Key invariants:
    - A shadow leaf is writable only if the guest leaf is writable {e
      and} the host-side p2m entry is writable (dirty logging, COW) {e
      and} the target frame is not itself a known guest page-table page
      {e and} the guest leaf's dirty bit is already set (so the first
      store faults and the pager can set the guest D bit — precise dirty
      bits, as hardware provides).
    - [rmap] records, for every guest frame, the shadow leaf slots that
      map it, so the pager can revoke access when the frame is promoted
      to a page-table page, COW-broken, shared, ballooned or swapped. *)

open Velum_isa
open Velum_machine

type env = {
  mem : Phys_mem.t;  (** host machine memory (shadow tables live here) *)
  alloc : Frame_alloc.t;
  cost : Cost_model.t;
  guest_frame : int -> int;
      (** the machine frame holding guest frame [gfn], resolving it as
          for a read (swap-in etc.), or [-1] for a bad gfn: the pager
          reads guest PTEs there directly *)
  is_ram : int -> bool;
      (** guest frame [gfn] is RAM: in range and not [Absent].  No side
          effect (nothing is swapped in); the pager asks before pairing a
          table, since a pairing takes a host frame *)
  write_guest_pte : int64 -> Pte.t -> bool;
      (** write a guest PTE (A/D maintenance, PT-write emulation);
          implementations must mark the page dirty for migration *)
  resolve_read : int64 -> int64 option;
      (** gfn → machine frame for a read mapping (swap-in etc.) *)
  resolve_write : int64 -> int64 option;
      (** gfn → machine frame for a write mapping (COW break, dirty
          logging) *)
  host_writable : int64 -> bool;
      (** current p2m writability of a gfn (false during a dirty-logging
          epoch until first resolved write) *)
}

type t

val create : env -> t

val is_pt_gfn : t -> int64 -> bool
(** [is_pt_gfn t gfn] — the frame is a known guest page-table page (and
    is therefore write-protected). *)

val fills : t -> int
val pt_writes : t -> int
val table_frames : t -> int
(** Shadow table pages currently allocated. *)

type fill_result =
  | Filled of { cycles : int }
      (** shadow updated; re-execute the faulting instruction *)
  | Guest_fault  (** the guest's own tables deny the access: reflect *)
  | Target_mmio of { gpa : int64 }
      (** the access targets the device window: emulate it *)
  | Pt_write of { gpa : int64 }
      (** a store to a write-protected guest page-table page: emulate
          the PTE update *)
  | Bad_gpa  (** the guest mapped a nonexistent physical address *)

val handle_fault :
  t -> root_gfn:int64 -> access:Arch.access -> user:bool -> va:int64 -> fill_result
(** [handle_fault] is the shadow pager's page-fault service routine: walk
    the guest tables in software, classify, and (in the common case)
    build the missing shadow entry, pairing and write-protecting guest
    table pages along the way.  [cycles] is the VMM work to charge. *)

val emulate_pt_write : t -> gpa:int64 -> value:Pte.t -> bool
(** [emulate_pt_write t ~gpa ~value] applies a guest PTE write to the
    guest table and knocks out the paired shadow entry, and, when the
    entry is a guest 2 MiB superpage the pager has splintered, every
    4 KiB shadow leaf splintered from it.  Returns [false] on a bad
    address.  The caller flushes the TLB. *)

val invalidate_gfn : t -> int64 -> unit
(** [invalidate_gfn t gfn] revokes every shadow leaf mapping [gfn]
    (COW break, sharing, balloon, swap-out).  The caller flushes the
    TLB. *)

val clear_all_writable : t -> unit
(** Strip the writable bit from every shadow leaf — start of a
    dirty-logging epoch.  The caller flushes the TLB. *)

val flush_all : t -> unit
(** Drop every shadow table and pairing (frees the frames). *)

val take_tlb_flush : t -> bool
(** [take_tlb_flush t] — true when a pager action since the last call
    requires a hardware TLB flush (new write-protection, revocation, PTE
    update); reading clears the request. *)

val translate :
  t ->
  satp:int64 ->
  tlb:Tlb.t ->
  access:Arch.access ->
  user:bool ->
  int64 ->
  int
(** The translate function the deprivileged hart runs with while the
    guest has paging enabled ([satp] is the guest's, enabled): TLB, then
    a one-dimensional walk of the shadow tree paired with its root.
    Every miss that the shadow tree cannot satisfy is a {!Cpu.xl_page}
    fault, which the hypervisor routes to {!handle_fault}.  The root
    pairing is memoised per [satp] until {!flush_all}, and a miss
    allocates nothing but the TLB entry it installs. *)
