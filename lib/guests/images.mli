(** Bootable guest images: pair a configured kernel with a user workload
    and load the result onto bare metal or into a VM. *)

open Velum_isa

type setup = {
  kernel : Asm.image;
  user : Asm.image;
  config : Kernel.config;
  frames : int;  (** guest frames the layout needs *)
}

val plan :
  ?pv_console:bool ->
  ?pv_pt:bool ->
  ?hcall_ok:bool ->
  ?heap_pages:int ->
  ?heap_superpages:bool ->
  ?timer_interval:int64 ->
  ?vnet:bool ->
  user:Asm.image ->
  unit ->
  setup
(** Build the kernel to fit [user] with the given features and compute
    the memory requirement. *)

val entry : int64
(** Boot entry point ({!Abi.kernel_base}). *)

val boot_native : ?engine:Velum_machine.Engine.kind -> setup -> Velum_devices.Platform.t
(** Bare metal: a platform of [setup.frames + 16] frames with both
    images loaded and the hart pointed at the kernel entry. *)

val load_vm : Velum_vmm.Vm.t -> setup -> unit
(** Load both images into guest memory; the VM's vCPU 0 must have been
    created with [entry] as its boot PC and [setup.frames] frames.  Use
    {!create_vm}, which does both. *)

val create_vm :
  Velum_vmm.Hypervisor.t ->
  name:string ->
  ?vcpu_count:int ->
  ?paging:Velum_vmm.Vm.paging_mode ->
  ?pv:Velum_vmm.Vm.pv ->
  ?weight:int ->
  ?nic:Velum_devices.Nic.link_binding ->
  ?tlb_size:int ->
  ?exec_mode:Velum_vmm.Vm.exec_mode ->
  ?engine:Velum_machine.Engine.kind ->
  setup ->
  Velum_vmm.Vm.t
(** The one way a guest is booted under a hypervisor:
    {!Velum_vmm.Hypervisor.create_vm} with [setup.frames] frames and
    [entry] as the boot PC, a NIC plugged into [nic]'s port
    ({!Velum_vmm.Vm.attach_nic}), then {!load_vm}.  The other arguments
    are passed through. *)

val hypervisor :
  ?host_frames:int -> ?cost:Velum_machine.Cost_model.t -> setup -> Velum_vmm.Hypervisor.t
(** A one-pCPU hypervisor on a fresh host sized for [setup]:
    [host_frames] frames (default [setup.frames + 1024]) and cost model
    [cost] — a migration or replication peer, or {!boot}'s host. *)

val boot :
  ?host_frames:int ->
  ?cost:Velum_machine.Cost_model.t ->
  name:string ->
  ?paging:Velum_vmm.Vm.paging_mode ->
  ?pv:Velum_vmm.Vm.pv ->
  ?tlb_size:int ->
  ?exec_mode:Velum_vmm.Vm.exec_mode ->
  ?engine:Velum_machine.Engine.kind ->
  setup ->
  Velum_vmm.Hypervisor.t * Velum_vmm.Vm.t
(** {!hypervisor} plus one guest from {!create_vm} on it. *)
