(** Paravirtual hypercall interface.

    ABI: the guest executes [hcall] with the call number in r1 and
    arguments in r2-r5; the result replaces r1 (0 = success, -1 =
    error).  One hypercall costs {!Velum_machine.Cost_model.t.hypercall}
    cycles — several times cheaper than a full trap-and-emulate exit,
    which is the entire point of paravirtualization. *)

(** Call numbers:
    - [hc_console_putc]: r2 = character
    - [hc_console_write]: r2 = buffer gpa, r3 = length
    - [hc_yield]: voluntarily give up the CPU
    - 3 (set timer): r2 = absolute cycle deadline (0 disarms)
    - [hc_balloon_give]: r2 = gfn surrendered to the host
    - [hc_balloon_want]: r2 = gfn requested back
    - [hc_pt_update]: r2 = gpa of a guest PTE, r3 = new value
    - 7 (batched PT update): r2 = gpa of an array of (pte-gpa, value)
      pairs, r3 = pair count — the Xen-style amortization of page-table
      maintenance
    - [hc_vm_id]: returns the VM id in r1

    Any other number returns -1. *)

val hc_console_putc : int64

val hc_console_write : int64
val hc_yield : int64
val hc_balloon_give : int64
val hc_balloon_want : int64
val hc_pt_update : int64
val hc_vm_id : int64

type action =
  | Continue  (** keep running the vCPU *)
  | Yield_cpu  (** the guest asked to be descheduled *)

val dispatch : Vm.t -> vcpu_idx:int -> now:int64 -> action
(** [dispatch vm ~vcpu_idx ~now] reads the registers, performs the call,
    writes the result to r1 and advances the PC. *)
