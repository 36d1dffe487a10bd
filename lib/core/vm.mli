(** A virtual machine: guest memory view, vCPUs, virtual devices and the
    paging machinery that binds them to the host.

    Guest-physical address space layout mirrors bare metal: RAM at zero,
    the device window at {!Velum_machine.Bus.mmio_base} (the same guest
    images boot natively and virtualized).  Each vCPU has its own TLB
    (modelling one hardware context per virtual hart). *)

open Velum_isa
open Velum_machine
open Velum_devices

type paging_mode = Shadow_paging | Nested_paging

type exec_mode =
  | Trap_emulate
      (** every sensitive event is a full world switch (the default) *)
  | Binary_translation
      (** a software translator rewrites sensitive instructions in
          place: the first execution of each sensitive site pays a
          translation cost, later executions emulate inline at a small
          fraction of an exit.  Device accesses and hidden page faults
          still require real exits.  Models VMware-style adaptive BT
          (Adams & Agesen, ASPLOS'06); semantics are identical to
          trap-and-emulate, only the cost accounting differs. *)

type pv = {
  pv_console : bool;  (** guest prints via hypercall, not UART MMIO *)
  pv_pt : bool;  (** guest updates page tables via hypercall batches *)
}

val no_pv : pv
val full_pv : pv

type t = {
  id : int;
  name : string;
  host : Host.t;
  p2m : P2m.t;
  vcpus : Vcpu.t array;
  tlbs : Tlb.t array;  (** parallel to [vcpus] *)
  dtlbs : Dtlb.t array;
      (** per-vCPU data micro-TLBs backed by the matching [tlbs] entry;
          handed to the execution engine through {!Cpu.ctx} *)
  paging : paging_mode;
  mutable shadow : Shadow.t option;
  mutable nested : Nested.t option;
  bus : Bus.t;
  uart : Uart.t;
  blk : Blockdev.t;  (** disks are backed lazily: no memory until written *)
  vblk : Virtio_blk.t;
  mutable nic : Nic.t option;
  mutable vnet : Virtio_net.t option;  (** paravirtual fabric port *)
  monitor : Monitor.t;
  dirty : Bytes.t;  (** dirty bitmap, one bit per guest frame *)
  mutable dirty_logging : bool;
  mutable remote_fetch : (int64 -> Bytes.t option) option;
      (** post-copy: pull a page from the migration source *)
  mutable remote_fault_cycles : int;
      (** latency charged per demand fetch *)
  pv : pv;
  mutable balloon_pages : int;  (** pages currently surrendered *)
  exec_mode : exec_mode;
  bt_cache : (int64, unit) Hashtbl.t;  (** translated sensitive sites *)
  engine : Engine.t;
      (** execution engine driving this VM's vCPUs; [exec_mode] above is
          the {e cost-model} abstraction (what an exit costs), the engine
          is the {e mechanism} (how instructions are dispatched) — the
          two compose freely *)
  mem_listener : int option;
      (** host-memory write-listener handle keeping the engine's
          translation cache coherent (block engine only) *)
  event_channels : (int64, t) Hashtbl.t;
      (** event-channel ports → peer VM (managed by {!Event}) *)
  mutable event_pending : bool;
      (** an unacknowledged event raises the external-interrupt line *)
  mutable trace : Trace.t option;
      (** tracing sink shared with the hypervisor ([None] = tracing off;
          set by {!Hypervisor.set_trace}, inherited at
          {!Hypervisor.create_vm}) *)
  mutable traces_seen : int;
      (** superblock traces already reported to the [trace] ring — the
          hypervisor polls {!traces_built} after each vCPU slice and
          records a formation event for the delta *)
}

val create :
  host:Host.t ->
  id:int ->
  name:string ->
  mem_frames:int ->
  ?vcpu_count:int ->
  ?paging:paging_mode ->
  ?pv:pv ->
  ?blk_sectors:int ->
  ?populate:bool ->
  ?nic:Nic.link_binding ->
  ?tlb_size:int ->
  ?exec_mode:exec_mode ->
  ?engine:Engine.kind ->
  entry:int64 ->
  unit ->
  t
(** Allocates all guest frames eagerly (Present, writable) unless
    [populate = false], in which case every entry starts [Absent]
    (post-copy migration fills them as [Remote]).

    @raise Failure when the host is out of frames (everything allocated
    so far is returned first). *)

val destroy : t -> unit
(** Release every host frame the VM holds (guest memory, shadow tables).
    The VM must not be used afterwards. *)

val attach_vnet : t -> link:Link.t -> endpoint:Link.endpoint -> Virtio_net.t
(** Plug a virtio-net adapter into one end of [link] and attach it to
    the VM's bus (at {!Virtio_net.mmio_base}).  Callable any time after
    creation — this is also how a live-migration twin gets its switch
    port back on the destination host, with {!Virtio_net.configure}
    restoring the ring layout host-side. *)

val load_image : t -> Asm.image -> unit
(** Copy an assembled image into guest-physical memory. *)

val mem_frames : t -> int
val halted : t -> bool
(** All vCPUs halted. *)

val guest_cycles : t -> int64
val vmm_cycles : t -> int64

(** {1 Dirty-page tracking (live migration)} *)

val mark_dirty : t -> int64 -> unit
val is_dirty : t -> int64 -> bool
val dirty_count : t -> int
val collect_dirty : t -> clear:bool -> int64 list
val start_dirty_logging : t -> unit
val stop_dirty_logging : t -> unit

(** {1 Guest-physical memory access (host side)}

    Used by virtual-device DMA, hypercall buffers and migration.  Writes
    resolve copy-on-write and dirty logging exactly as guest stores do. *)

val resolve_read : t -> int64 -> int64 option
(** [resolve_read vm gfn] — machine frame backing [gfn] for reading
    (performs swap-in / remote fetch); [None] if unbacked. *)

val resolve_write : t -> int64 -> int64 option

val read_gpa_u64 : t -> int64 -> int64 option
val write_gpa_u64 : t -> int64 -> int64 -> bool
val read_gpa_bytes : t -> int64 -> int -> Bytes.t option
val write_gpa_bytes : t -> int64 -> Bytes.t -> bool

val guest_mem : t Lazy.t -> Virtio_ring.guest_mem
val guest_dma : t Lazy.t -> Blockdev.dma
(** Device views of guest memory.  The VM is taken lazily so a device can
    be built before the record that holds it; it is forced on each
    access. *)

(** {1 Guest-virtual access (instruction emulation)} *)

val read_guest_va : t -> vcpu_idx:int -> int64 -> int64 option
(** Software walk of the guest's own tables (no side effects), then a
    physical read; [None] on any fault. *)

(** {1 Translation} *)

val translate :
  t ->
  vcpu_idx:int ->
  access:Arch.access ->
  user:bool ->
  int64 ->
  (Cpu.xlate, Cpu.xlate_fault) result
(** The translate function installed in the deprivileged hart's context;
    dispatches on paging mode and the vCPU's virtual [satp]. *)

val flush_vcpu_tlb : t -> vcpu_idx:int -> unit
val flush_all_tlbs : t -> unit

(** {1 Execution engine} *)

val engine_kind : t -> Engine.kind

val revoke_exec_frame : t -> ppn:int64 -> unit
(** Drop any decoded blocks cached for machine frame [ppn].  Called when
    a frame leaves the VM with its bytes intact — ballooning, COW
    sharing, hypervisor swap-out — so the translation cache never pins
    work for pages the guest no longer owns.  Content {e changes} need no
    call: the cache subscribes to {!Velum_machine.Phys_mem} write
    listeners.  No-op on the interpreter engine. *)

val traces_built : t -> int
(** Superblock traces compiled so far by this VM's block engine (0 on
    the interpreter).  The hypervisor compares this against
    [traces_seen] after each vCPU slice to emit trace-formation events
    into the {!Trace} ring. *)

(** {1 Ballooning} *)

val balloon_out : t -> int64 -> bool
(** [balloon_out vm gfn] — the guest surrendered [gfn]; frees the backing
    frame.  False if the gfn is not present. *)

val balloon_in : t -> int64 -> bool
(** [balloon_in vm gfn] — give the page back (zeroed).  False if not
    ballooned or the host is out of memory. *)

(** {1 Console} *)

val console_put : t -> char -> unit
val console_output : t -> string

val pp : Format.formatter -> t -> unit

val publish_stats : t -> unit
(** Snapshot engine dispatch, chain, trace, TLB and micro-TLB counters
    into the monitor as gauges ([engine.*], [tlb.*], [dtlb.*]).  Presentation
    paths call this right before printing; the run loop never does, so
    raw monitor state stays comparable across engines. *)
