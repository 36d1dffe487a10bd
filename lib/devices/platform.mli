(** A complete bare-metal VR64 machine: one hart, RAM, MMU, and a device
    complement (UART console, emulated block device, paravirtual block
    device) on the MMIO bus.

    This is the {e native} baseline every virtualization experiment
    compares against — the same guest images boot here and under the
    hypervisor. *)

open Velum_isa
open Velum_machine

type t = {
  mem : Phys_mem.t;
  bus : Bus.t;
  uart : Uart.t;
  blk : Blockdev.t;
  vblk : Virtio_blk.t;
  cpu : Cpu.state;
  tlb : Tlb.t;
  dtlb : Dtlb.t;  (** micro-TLB backed by [tlb] (see {!Dtlb}) *)
  mmu : Mmu.t;
  cost : Cost_model.t;
  engine : Engine.t;  (** execution engine driving the hart *)
  mutable clock : int64;
  mutable io_hook : (write:bool -> addr:int64 -> now:int64 -> unit) option;
      (** observer for MMIO/port accesses, stamped with the machine
          clock (see {!set_io_hook}) *)
}

val identity_dma : Phys_mem.t -> Blockdev.dma
(** DMA callbacks that treat device addresses as raw physical addresses
    (native: guest-physical = machine-physical). *)

val identity_guest_mem : Phys_mem.t -> Virtio_ring.guest_mem

val create :
  ?frames:int ->
  ?cost:Cost_model.t ->
  ?tlb_size:int ->
  ?engine:Engine.kind ->
  unit ->
  t
(** [create ()] builds a machine with 4096 frames (16 MiB) by default.
    Both block devices hold 8192 sectors.  [engine] picks the execution
    engine (default {!Engine.default}); the block engine keeps its cache
    coherent with RAM through its own write listener, so DMA and
    self-modifying code behave identically on both. *)

val load_image : t -> Asm.image -> unit
(** Copy an assembled image into RAM at its origin. *)

val set_io_hook : t -> (write:bool -> addr:int64 -> now:int64 -> unit) -> unit
(** Install an observer called on every device access (MMIO read/write,
    port in/out) with the current cycle clock.  Purely an observation
    point — it must not touch machine state.  The CLI uses it to feed
    the tracing subsystem on native runs without making this library
    depend on the hypervisor. *)

val boot : t -> entry:int64 -> unit
(** Reset the hart: [pc := entry], supervisor mode, registers cleared. *)

val make_ctx : t -> Cpu.ctx
(** The native hart context {!run} drives the engine with: the MMU's
    translate and flush, the machine clock as [now], the bus's interrupt
    line, MMIO and UART ports reaching the devices (each access reported
    to the {!set_io_hook} observer), and the machine's micro-TLB. *)

type outcome =
  | Halted  (** the guest executed [halt] *)
  | Out_of_budget
  | Deadlock  (** [wfi] with no event that could ever wake the hart *)

val run : ?budget:int64 -> t -> outcome
(** [run ?budget t] executes until halt, budget exhaustion (default 500M
    cycles) or deadlock, advancing the cycle clock and ticking devices.
    [wfi] fast-forwards the clock to the next timer or device event. *)

val console_output : t -> string
val cycles : t -> int64
val instructions_retired : t -> int64
