(** Per-VM event counters — the hypervisor's telemetry.

    Every VM exit, interrupt injection, shadow-pager action and
    memory-management event increments a counter here; the benchmark
    harness reads them to build the paper's tables. *)

type exit_kind =
  | E_csr
  | E_sret
  | E_sfence
  | E_wfi
  | E_halt
  | E_port_io
  | E_mmio
  | E_hypercall
  | E_guest_trap  (** reflected trap (syscall, illegal, breakpoint…) *)
  | E_guest_page_fault  (** reflected to the guest *)
  | E_shadow_fill  (** hidden fault: shadow entry built, guest resumed *)
  | E_pt_write  (** write-protected guest page-table write emulated *)
  | E_dirty_log  (** dirty-tracking write fault *)
  | E_cow_break
  | E_swap_in
  | E_remote_fetch  (** post-copy demand fetch *)
  | E_bt_translate  (** binary translation of a new sensitive site *)
  | E_watchdog  (** progress watchdog fired: no retired instructions *)
  | E_ha_restart
      (** HA supervisor destroyed this (wedged) VM's predecessor and
          restored it from the last good checkpoint *)
  | E_ha_degraded
      (** crash-loop budget exhausted: the supervisor gave up restarting
          and degraded the VM to halted *)
  | E_ha_failover
      (** this VM is a backup twin activated by missed heartbeats *)
  | E_cluster_shed
      (** cluster admission rejected (or evicted) this VM under overload:
          the lowest priority class is shed rather than breaching
          headroom *)
  | E_cluster_degraded
      (** the cluster control plane gave up evacuating a crash-looping VM
          and degraded it to halted (fleet-level analogue of
          [E_ha_degraded]) *)

val exit_kind_name : exit_kind -> string
val all_exit_kinds : exit_kind list

val kind_index : exit_kind -> int
(** Dense index of a kind within [all_exit_kinds] — a constant-time
    constructor match, safe on the exit hot path.  {!Trace} keys its
    per-kind latency histograms by it. *)

val nkinds : int
(** [List.length all_exit_kinds]. *)

type t

val create : unit -> t

val bump : t -> exit_kind -> unit
val add_cycles : t -> exit_kind -> int -> unit
(** [add_cycles t k c] accumulates VMM overhead cycles attributed to
    [k]. *)

val count : t -> exit_kind -> int
val cycles : t -> exit_kind -> int64
val total_exits : t -> int

val irq_injected : t -> unit
val irq_injections : t -> int

(** {1 Gauges}

    Free-form named statistics published in bulk (dotted names by
    convention: [engine.trace.follows], [tlb.evictions], …).  Unlike the
    exit counters these are set, not bumped — callers snapshot a
    subsystem's counters into the monitor right before printing. *)

val set_gauge : t -> string -> int -> unit
val gauge : t -> string -> int option
val gauges : t -> (string * int) list
(** Sorted by name. *)

val reset : t -> unit

val to_json : t -> string
(** Canonical single-line JSON: nonzero exits as ["name":[count,cycles]]
    in declaration order, then [irq_injections], then gauges sorted by
    name.  Order-stable by construction — two monitors holding the same
    values export byte-identical strings whatever the Hashtbl insertion
    order was, so parallel-vs-sequential diffs are meaningful. *)

val pp : Format.formatter -> t -> unit
(** One line per nonzero counter, then every gauge.  Gauges are sorted
    by name ({!gauges}), so the text export is order-stable too. *)
