(** MMIO bus: dispatches physical accesses in the device window to device
    models, and collects their interrupt lines.

    By convention (shared by native machines and virtual machines) the
    device window is physical [0x4000_0000, 0x5000_0000); RAM starts at
    zero and must not reach the window. *)

open Velum_isa

val mmio_base : int64

val is_mmio : int64 -> bool
(** [is_mmio pa] — the address falls in the device window (regardless of
    whether a device is mapped there). *)

type device = {
  name : string;
  base : int64;  (** absolute physical base inside the window *)
  size : int;
  read : int64 -> Instr.width -> int64;  (** offset-relative *)
  write : int64 -> Instr.width -> int64 -> unit;
  tick : int64 -> unit;  (** advance device time to the given cycle *)
  pending_irq : unit -> bool;
}

type t

val create : unit -> t

val attach : t -> device -> unit
(** @raise Invalid_argument if the range is outside the window or
    overlaps an attached device. *)

val devices : t -> device list

val find : t -> int64 -> (device * int64) option
(** [find t pa] is the device covering [pa] plus the offset within it. *)

val read : t -> int64 -> Instr.width -> int64 option
(** [read t pa w] dispatches; [None] if no device claims the address
    (reads as a bus error to the CPU). *)

val write : t -> int64 -> Instr.width -> int64 -> bool
val tick : t -> int64 -> unit
val pending_irq : t -> bool
