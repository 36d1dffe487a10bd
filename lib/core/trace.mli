(** Cycle-stamped tracing and profiling — the hypervisor's xentrace.

    Each traced VM owns a bounded event ring ({!Velum_util.Ring},
    oldest-evicted), one {!Velum_util.Histogram} of service latency per
    {!Monitor.exit_kind}, and a guest / VMM / device cycle-attribution
    triple.  All timestamps are simulated cycles and all accumulation is
    integer, so identical runs export byte-identical traces (the CI
    determinism gate diffs the files literally).  Recording is host-side
    bookkeeping only: it never perturbs simulated time, so a traced run
    executes exactly the same exits and cycles as an untraced one.

    Hooks live in {!Emulate} (exits, IRQ injection, hypercalls, device
    I/O), {!Hypervisor} (dispatch decisions, guest-cycle attribution),
    the schedulers (via {!Scheduler.hook}), {!Migrate} (copy rounds) and
    {!Ha} (checkpoint / restart / degrade / failover).  Install with
    {!Hypervisor.set_trace}. *)

type ha_what = Ha_checkpoint | Ha_restart | Ha_degraded | Ha_failover

type stop_reason =
  | S_slice  (** slice expired *)
  | S_yield
  | S_block
  | S_halt

type event =
  | Exit of { kind : Monitor.exit_kind; cost : int; detail : int64 }
      (** one VM exit: service cost in cycles, plus a kind-specific
          detail (faulting VA, MMIO GPA, port, gfn, …; 0 when unused) *)
  | Irq_inject of { cost : int }
  | Dispatch of { vcpu : int; slice : int; used : int; stop : stop_reason }
      (** scheduler dispatch: granted slice, consumed cycles, and why
          the vCPU left the pCPU *)
  | Sched_wake of { boosted : bool }
  | Sched_refill  (** credit accounting period *)
  | Sched_clamp  (** BVT wake clamp *)
  | Hypercall of { num : int64 }
  | Device_io of { write : bool; addr : int64 }
  | Migration_round of { round : int; pages : int }
  | Ha_event of { what : ha_what; detail : int64 }
  | Trace_formed of { count : int }
      (** the block engine promoted [count] hot paths into superblock
          traces during the preceding vCPU slice *)

type record = { at : int64; ev : event }

type t

val create : ?ring_capacity:int -> unit -> t
(** [ring_capacity] defaults to 4096 events per VM. *)

val record : t -> vm_id:int -> name:string -> at:int64 -> event -> unit
(** Append an event to [vm_id]'s ring (evicting the oldest when full)
    and fold it into the per-kind histograms and cycle attribution. *)

val add_guest_cycles : t -> vm_id:int -> name:string -> int -> unit
(** Attribute directly-executed guest cycles (called per engine chunk). *)

(** {1 Readback (tests, bench)} *)

val vm_ids : t -> int list
(** Ascending. *)

val events_recorded : t -> int
(** Total across VMs, including ring-evicted events. *)

val exit_count : t -> vm_id:int -> Monitor.exit_kind -> int
val guest_cycles : t -> vm_id:int -> int64
val vmm_cycles : t -> vm_id:int -> int64
(** Exit-service cycles excluding device emulation. *)

val device_cycles : t -> vm_id:int -> int64
(** MMIO and port-I/O exit-service cycles. *)

(** {1 Export and reporting} *)

val export_string : t -> string
(** Deterministic JSONL: a [meta] line, per-VM attribution lines,
    non-empty per-kind histogram lines (count/sum/min/max/mean/p50/p95/
    p99 plus log2 buckets), then the retained event tail oldest-first. *)

val export_file : t -> string -> unit

val render_report : string -> string
(** [render_report path] reads an exported JSONL file back and renders
    the cycle-attribution and per-exit-kind latency tables ([velum
    trace]). *)

val render_report_lines : string list -> string
(** Same, from already-read lines (exposed for tests). *)
