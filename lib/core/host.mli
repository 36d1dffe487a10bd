(** Host machine resources shared by the hypervisor's subsystems: machine
    memory, the frame allocator, the cost model, and a swap area.

    Swap models a host-level paging device: slot granularity is one
    frame, and each transfer has a large fixed latency —
    {!swap_cost_cycles} — so hypervisor swapping is visibly worse than
    ballooning in the overcommit experiments, as in the ESX memory
    paper. *)

open Velum_machine

type t = {
  mem : Phys_mem.t;
  alloc : Frame_alloc.t;
  cost : Cost_model.t;
  default_engine : Engine.kind;
      (** execution engine VMs on this host use unless overridden at
          {!Hypervisor.create_vm} time *)
  swap : Bytes.t Velum_util.Keytbl.Int.t;  (** slot → parked frame image *)
  swap_slots : int;  (** the swap area's size in slots *)
  mutable swap_next : int;
      (** slots [swap_next .. swap_slots - 1] have never been used: a
          host that never swaps builds nothing per slot *)
  mutable swap_free : int list;
      (** slots used and given back (LIFO), taken before a never-used
          one, so {!swap_out} allocates in O(1) and hands out slots in
          the order a full free list would *)
  mutable swap_ins : int;
  mutable swap_outs : int;
  mutable churn : Churn.t option;
      (** the host's one dirty-frame tracker, once something asked for
          it through {!churn} *)
}

val create :
  ?frames:int -> ?cost:Cost_model.t -> ?swap_slots:int -> ?engine:Engine.kind -> unit -> t
(** Default: 16384 frames (64 MiB), 4096 swap slots,
    {!Engine.default}. *)

val churn : t -> Churn.t
(** The host's dirty-frame tracker, attached on first use: every
    checkpointing consumer on the host shares it, and a host that never
    checkpoints carries no listener. *)

val swap_cost_cycles : int
(** Cycles charged per swap transfer (~a disk access). *)

val swap_out : t -> ppn:int64 -> int
(** [swap_out t ~ppn] copies the frame into a free slot (popped from the
    free-list in O(1)) and returns it (the frame itself is {e not} freed
    — the caller owns that).

    @raise Failure when swap is full. *)

val swap_in : t -> slot:int -> ppn:int64 -> unit
(** [swap_in t ~slot ~ppn] restores a slot into the given frame and frees
    the slot.

    @raise Invalid_argument if the slot is empty. *)

val free_swap_slots : t -> int
