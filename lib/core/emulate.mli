(** VM-exit emulation — the hypervisor's trap handler.

    Each exit from a deprivileged hart lands here.  The handler emulates
    the sensitive instruction against the vCPU's virtual state (or
    services the hidden fault), charges the exit's cycles to the vCPU's
    VMM account, bumps the telemetry counters, and says how the scheduler
    should proceed. *)

open Velum_machine

type action =
  | Resume  (** re-enter the guest *)
  | Yielded  (** guest voluntarily released the CPU (yield hypercall) *)
  | Became_blocked  (** vCPU blocked in wfi; wake on virtual interrupt *)
  | Vcpu_halted

val handle_exit : Vm.t -> vcpu_idx:int -> now:int64 -> Cpu.vmexit -> action

val irq_deliverable : Vm.t -> Vcpu.t -> now:int64 -> bool
(** A virtual interrupt is pending {e and} the guest would accept it —
    the wake condition for blocked vCPUs. *)

val maybe_inject_irq : Vm.t -> vcpu_idx:int -> now:int64 -> bool
(** Inject the highest-priority deliverable virtual interrupt (if any)
    by performing trap entry on the virtual state; returns whether one
    was injected.  Called before resuming a vCPU. *)

