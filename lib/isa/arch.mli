(** VR64 architecture definition: modes, registers, CSRs, trap causes and
    the constants shared by the CPU, MMU and guest kernels.

    VR64 is a 64-bit RISC machine with two privilege modes and Sv39-style
    three-level paging.  It is deliberately {e classically virtualizable}:
    every sensitive instruction is also privileged, so a trap-and-emulate
    hypervisor needs no binary translation (cf. Popek & Goldberg). *)

(** {1 Privilege modes} *)

type mode = User | Supervisor

(** {1 General registers}

    Sixteen 64-bit registers; register 0 reads as zero and ignores
    writes. *)

type reg = int
(** Register index in [0, 15]. *)

val num_regs : int

val reg_name : reg -> string
(** [reg_name r] is ["r3"] etc.

    @raise Invalid_argument if out of range. *)

(** {1 Control and status registers} *)

type csr =
  | Satp  (** paging control: bit 63 = translation enable, bits 0-43 = root
              page-table PPN *)
  | Stvec  (** trap-vector base address *)
  | Sepc  (** PC saved on trap *)
  | Scause  (** trap cause code *)
  | Stval  (** faulting address / bad instruction *)
  | Sie  (** interrupt-enable bits; see {!irq_timer} / {!irq_external} *)
  | Sip  (** interrupt-pending bits (read-only to software) *)
  | Sscratch  (** scratch for trap handlers *)
  | Stimecmp  (** timer comparator: timer interrupt pends when
                  [time >= stimecmp] *)
  | Time  (** current cycle count (read-only) *)
  | Vmid  (** VM identity hint: 0 when native, nonzero under a hypervisor
              that chooses to expose itself (read-only) *)
  | Hartid  (** this hart's index, 0-based (read-only) *)

val csr_index : csr -> int
(** Stable encoding index used in the instruction format. *)

val csr_of_index : int -> csr option
val csr_name : csr -> string
val all_csrs : csr list

val csr_read_only : csr -> bool
(** [csr_read_only c] is true for [Time], [Sip], [Vmid] and
    [Hartid]. *)

(** {1 Interrupt bit positions in [sie]/[sip]} *)

val irq_timer : int
val irq_external : int

(** {1 Trap causes} *)

type cause =
  | Syscall  (** [ecall] from user mode *)
  | Breakpoint  (** [ebreak] *)
  | Illegal_instruction
  | Misaligned_fetch
  | Misaligned_load
  | Misaligned_store
  | Fetch_page_fault
  | Load_page_fault
  | Store_page_fault
  | Fetch_access_fault  (** physical address outside RAM and MMIO *)
  | Load_access_fault
  | Store_access_fault
  | Timer_interrupt
  | External_interrupt

val cause_code : cause -> int64
(** Numeric encoding written to [scause]; interrupts have bit 63 set. *)

val cause_of_code : int64 -> cause option
val cause_name : cause -> string
val is_interrupt : cause -> bool

(** {1 Memory accesses} *)

type access = Fetch | Load | Store

val access_name : access -> string

val fault_cause : access -> [ `Page | `Access | `Misaligned ] -> cause
(** [fault_cause a k] maps an access kind and fault class to the
    architectural cause, e.g. [fault_cause Store `Page =
    Store_page_fault]. *)

(** {1 Architectural constants} *)

val xlen : int
(** Word size in bits (64). *)

val instr_bytes : int
(** Instruction width in bytes (8). *)

val page_shift : int
(** log2 of the page size (12). *)

val page_size : int
(** 4096. *)

val pt_levels : int
(** Page-table levels (3). *)

val vpn_bits : int
(** Index bits per level (9 → 512 PTEs per table page). *)

val va_bits : int
(** Virtual-address width: [pt_levels * vpn_bits + page_shift] = 39. *)

val satp_make : root_ppn:int64 -> int64
(** [satp_make ~root_ppn] is a satp value with translation enabled. *)

val satp_enabled : int64 -> bool
val satp_root_ppn : int64 -> int64
