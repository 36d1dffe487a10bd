(** VR64 CPU interpreter.

    One interpreter serves two uses:

    - {b Native}: the hart executes privileged instructions directly,
      takes its own traps into [stvec], and talks to devices through the
      bus.  This is the bare-metal baseline for every experiment.
    - {b Deprivileged}: the hart belongs to a virtual machine.  Every
      privileged instruction, trap condition, MMIO touch and hypercall
      suspends execution and returns a {!vmexit} to the embedding
      hypervisor, which emulates against the vCPU's virtual state and
      resumes.  This is classic trap-and-emulate; VR64 traps on all
      sensitive instructions, so the construction is complete.

    {b Interrupt-control register.}  The [sie] CSR doubles as a status
    register: bit 63 is the global interrupt enable (GIE), bit 62 the
    previous GIE (SPIE), bit 61 the previous privilege mode (SPP,
    1 = supervisor); bits {!Velum_isa.Arch.irq_timer} and
    {!Velum_isa.Arch.irq_external} enable the two interrupt sources.
    Trap entry saves GIE→SPIE and mode→SPP and clears GIE; [sret]
    restores both.  [stimecmp] = 0 disarms the timer. *)

open Velum_isa

(** {1 Architectural state} *)

(** The complete engine-visible state of a hart: decoded blocks held by
    a translation cache ({!Trans_cache}) are rebuilt on demand from
    memory, so saving a hart saves this record and nothing else. *)
type state = {
  regs : Bytes.t;
      (** the register file: 17 little-endian 64-bit slots, r0-r15 then
          the PC; go through {!get_reg}/{!set_reg}/{!pc}/{!set_pc}, or
          {!slot_get}/{!slot_set} on hot paths *)
  mutable mode : Arch.mode;
  csrs : int64 array;  (** indexed by {!Arch.csr_index} *)
  mutable halted : bool;
  mutable waiting : bool;  (** parked in [wfi] *)
  mutable instret : int64;
      (** retired instruction count; engines add to it once per
          [step_n] call, so it is exact whenever the hart is stopped *)
}

val create_state : ?pc:int64 -> ?mode:Arch.mode -> unit -> state
(** Fresh state: zero registers and CSRs (mode defaults to
    [Supervisor]). *)

val get_reg : state -> Arch.reg -> int64
val set_reg : state -> Arch.reg -> int64 -> unit
(** [set_reg s 0 v] is a no-op (r0 is hardwired to zero).

    @raise Invalid_argument if the register index is outside 0-15. *)

val pc : state -> int64
val set_pc : state -> int64 -> unit

(** Unchecked slot access for hot paths in other modules.  These are
    compiler primitives, so they are inlined at every call site and
    move the value unboxed; an ordinary function returning [int64]
    across a module boundary would box it.  [off] is a byte offset:
    [8 * r] for register [r] (the caller keeps r0 zero), {!pc_slot}
    for the PC. *)

external slot_get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external slot_set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

val pc_slot : int
(** Byte offset of the PC in [regs] (after the 16 registers). *)

val get_csr : state -> Arch.csr -> int64
val set_csr : state -> Arch.csr -> int64 -> unit
(** Raw CSR cell access; no legality checks (the VMM uses this to edit
    virtual state). *)

(** {1 Status-register bit helpers} *)

val gie : state -> bool

val deliver_trap : state -> cause:Arch.cause -> tval:int64 -> unit
(** [deliver_trap s ~cause ~tval] performs architectural trap entry on
    [s]: saves [pc] to [sepc], writes [scause]/[stval], saves GIE/mode
    into SPIE/SPP, clears GIE, enters supervisor mode and jumps to
    [stvec].  Used natively by the interpreter and by the hypervisor to
    reflect faults and inject interrupts into a guest. *)

val apply_sret : state -> unit
(** [apply_sret s] performs the architectural [sret]: restores mode from
    SPP, GIE from SPIE, and jumps to [sepc]. *)

val timer_pending : state -> now:int64 -> bool
(** [timer_pending s ~now] — the timer comparator is armed and expired. *)

val interrupt_pending : state -> now:int64 -> ext_irq:bool -> Arch.cause option
(** [interrupt_pending s ~now ~ext_irq] is the highest-priority
    deliverable interrupt (external before timer), honouring GIE and the
    per-source enables. *)

(** {1 Execution environment} *)

(** {2 Translation results}

    A translator returns one immediate [int], so a translation allocates
    nothing.  A non-negative result packs the machine physical address
    (bits 0-47), the MMIO flag (bit 48) and the cycles charged for the
    walk (bits 49 up); a negative one is a fault code.  A zero-cycle RAM
    translation is the address itself. *)

val xl_page : int
(** Fault code: the page is not mapped or the access is not permitted
    (a guest page fault, or a hypervisor-level miss). *)

val xl_access : int
(** Fault code: the address lies outside RAM and the device window. *)

val xl_make : pa:int -> mmio:bool -> cycles:int -> int
(** Pack a successful translation.

    @raise Invalid_argument if [pa] is negative or at or above 2^48, or
    [cycles] is negative or does not fit the field (2^13 - 1). *)

val xl_frame : ppn:int64 -> va:int64 -> mmio:bool -> cycles:int -> int
(** {!xl_make} of the address at [va]'s page offset in frame [ppn]. *)

val xl_hit : int -> va:int64 -> int
(** [xl_hit hit ~va] — the zero-cycle translation of [va] through a
    {!Tlb.probe} hit. *)

val xl_pa : int -> int
val xl_mmio : int -> bool
val xl_cycles : int -> int

type env =
  | Native of {
      mmio_read : int64 -> Instr.width -> int64 option;
      mmio_write : int64 -> Instr.width -> int64 -> bool;
      port_in : int -> int64 option;
      port_out : int -> int64 -> bool;
    }  (** devices reachable directly *)
  | Deprivileged  (** all sensitive events exit to the hypervisor *)

type ctx = {
  translate : access:Arch.access -> user:bool -> int64 -> int;
      (** a packed translation or a fault code (see above) *)
  mem : Phys_mem.t;  (** the RAM every translated address points into *)
  flush_tlb : unit -> unit;
      (** invoked on native [sfence] and [satp] writes *)
  now : unit -> int64;  (** global cycle clock (drives [Time] and the
                            timer) *)
  ext_irq : unit -> bool;
  cost : Cost_model.t;
  env : env;
  dtlb : Dtlb.t;
      (** micro-TLB backed by this hart's TLB: the block engine serves
          repeated fetch, load and store translations from it.  The
          interpreter never consults it (it stays the pure reference). *)
}

(** {1 VM exits} *)

type vmexit =
  | X_privileged of Instr.t
      (** a privileged instruction; PC has {e not} advanced *)
  | X_trap of { cause : Arch.cause; tval : int64 }
      (** a guest-level trap condition (ecall, ebreak, illegal,
          misaligned); the hypervisor normally reflects it with
          {!deliver_trap} *)
  | X_page_fault of { access : Arch.access; va : int64 }
      (** translation failed; the hypervisor classifies it (shadow miss,
          dirty tracking, ballooned page, or a real guest fault) *)
  | X_mmio_load of { rd : Arch.reg; pa : int64; width : Instr.width }
  | X_mmio_store of { pa : int64; width : Instr.width; value : int64 }
  | X_hypercall  (** arguments in r1-r5 per the ABI in {!Asm} *)

val pp_vmexit : Format.formatter -> vmexit -> unit

val advance_pc : state -> unit
(** [advance_pc s] skips the current instruction (+8); the hypervisor
    calls it after emulating an exiting instruction. *)

(** {1 Running} *)

type stop =
  | Budget  (** cycle budget exhausted (preemption point) *)
  | Halted  (** [halt] executed (native) or state already halted *)
  | Waiting  (** [wfi] with nothing pending (native); the embedder should
                 advance time *)
  | Exit of vmexit  (** deprivileged only *)

(** Outcome of one instruction: cycles consumed, and whether the hart
    must stop.  Native traps are folded into [Retired] (the trap has
    been delivered and execution continues at [stvec]). *)
type step = Retired of int | Stop_exec of stop * int

val run : state -> ctx -> budget:int -> int * stop
(** [run s ctx ~budget] executes instructions until the budget is
    consumed or something stops the hart; returns cycles consumed and the
    reason.  Interrupts are checked between instructions (native mode
    only — a hypervisor injects interrupts with {!deliver_trap} before
    resuming).  This is the reference interpreter; {!Engine.interp}
    wraps it, and every other engine must be observationally equivalent
    to it (state, exits, [instret] {e and} simulated cycles). *)

(** {1 Engine building blocks}

    The pieces [run] is made of, exported so alternative execution
    engines ({!Engine}) reproduce the reference semantics exactly
    instead of approximating them. *)

val is_deprivileged : ctx -> bool

val alu_cycles : Cost_model.t -> Instr.alu_op -> int
(** Extra cycles (beyond [base_instr]) an ALU sub-op costs — nonzero
    only for [Mul]/[Div]/[Rem]. *)

val eval_alu : Instr.alu_op -> int64 -> int64 -> int64
(** The pure ALU evaluation [run] uses, exported so trace compilers
    ({!Trace_ir}) reuse the reference semantics instead of copying
    them. *)

val alui_imm : Instr.alu_op -> int64 -> int64
(** Fold an ALU-immediate operand to the value {!eval_alu} must see:
    bitwise ops zero-extend the low 32 bits, shifts keep the low 6 bits,
    arithmetic/compares pass the sign-extended immediate through. *)

val eval_branch : Instr.branch_op -> int64 -> int64 -> bool

val trap_or_exit : state -> ctx -> Arch.cause -> int64 -> int -> step
(** [trap_or_exit s ctx cause tval cycles] — deliver a guest-level trap:
    natively via {!deliver_trap} (folded into [Retired], adding
    [trap_enter]); deprivileged as a [X_trap] exit. *)

val data_fault : state -> ctx -> Arch.access -> int64 -> int -> step
(** [data_fault s ctx access va code] — the outcome of a load or store
    at [va] whose translation failed with the fault code [code]: a page
    fault exit (deprivileged) or a delivered page or access fault,
    costing [base_instr]. *)

val exec_insn : state -> ctx -> Instr.t -> step
(** Execute one already-decoded instruction at the current PC.  Does
    {e not} bump [instret] (the driver loop owns that) and charges no
    fetch-translation cycles. *)

val fetch_prelude : state -> ctx -> int
(** The fetch-side checks preceding decode: PC alignment, instruction
    translation, and the MMIO-fetch rejection.  A non-negative result
    is the packed fetch translation (never MMIO); it charges nothing —
    the caller adds its {!xl_cycles} to the executed instruction's cost
    exactly as the interpreter does.  A negative result is a fault code
    for {!fetch_fault}. *)

val fetch_fault : state -> ctx -> int -> step
(** [fetch_fault s ctx code] delivers the trap or exit for a negative
    {!fetch_prelude} result. *)
