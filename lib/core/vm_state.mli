(** A VM's state outside its memory, in one codec: every snapshot,
    migration and replica saves, copies or moves a VM through it.

    It holds the VM's shape (name, frames, vCPU count, paging, PV flags,
    exec mode, engine, TLB size, scheduler weight), each vCPU's
    architectural and run state, and the state of each device, which
    the device encodes itself.  Memory travels separately, page by page;
    disk contents and port bindings (link and endpoint) are not state. *)

type t = Bytes.t

val save : Vm.t -> t

val create_vm : Hypervisor.t -> ?suffix:string -> ?max_frames:int -> populate:bool -> t -> Vm.t
(** The one way a VM is built from a saved shape: registered, named with
    [suffix] appended, guest frames allocated unless [populate = false],
    no state loaded and no port plugged in.  A shape of more than
    [max_frames] frames (default and cap 2{^24}) is bad.

    @raise Failure on a bad shape or when the host lacks frames, before
    anything sized by the shape is allocated. *)

val load : Hypervisor.t -> Vm.t -> t -> unit
(** Load the vCPUs and devices into a VM on this hypervisor built from
    the same shape.  Device clocks restart at the hypervisor's clock.  A
    port device's state loads only if the VM has that port.

    @raise Failure on a bad state (a vCPU count that disagrees with the
    shape, a device field out of range), leaving the VM half loaded. *)

val move : Hypervisor.t -> from:Vm.t -> Vm.t -> unit
(** An in-memory move: the VM takes over [from]'s ports, with fresh
    adapters on the same link endpoints, then loads [from]'s state. *)
