(** Software L2 switch connecting many VMs over per-port {!Link}s.

    Port [i] is the [`B] end of [ports.(i)]; the VM's NIC sits at [`A].
    Frames start with two little-endian u64 fields — destination MAC
    then source MAC (anything shorter is a runt).  The switch learns
    source MACs per port, forwards known unicast, floods broadcast
    ([0xffff_ffff_ffff_ffff]) to every other port, and drops — with a
    named counter, never silently — unknown unicast ([drop_unknown]),
    frames whose destination is their ingress port ([drop_reflect]),
    runts ([drop_runt]) and frames arriving at a full egress queue
    ([drop_queue_full]; bounded per-port queues measured as in-flight
    frames on the egress link).

    Conservation: [in_frames + flood_extra = out_frames + drops] always
    holds ({!conserved}); downstream losses are the port links' to count
    ({!Link.wire_dropped}). *)

val broadcast_mac : int64
val header_bytes : int

type t

val create : ?queue_cap:int -> Link.t array -> t
(** [queue_cap] (default 64) bounds each port's egress queue.

    @raise Invalid_argument on zero ports or a non-positive cap. *)

val port : t -> int -> Link.t

val learn : t -> mac:int64 -> port:int -> unit
(** Preload a static MAC-table entry (also learned dynamically from
    source addresses). *)

val lookup : t -> int64 -> int option

val set_snoop : t -> (int -> int64 -> string -> unit) option -> unit
(** [set_snoop t (Some f)] calls [f egress_port now frame] for every
    forwarded frame — benches use it to timestamp request/reply pairs
    into latency histograms without perturbing the data path. *)

val tick : t -> int64 -> unit
(** Drain every port's arrivals (in port order) and forward them.  Time
    only moves forward, so two hypervisors may tick one switch during a
    live migration. *)

val next_event : t -> int64 option
(** Earliest pending arrival on any port — lets an idle hypervisor
    sleep until the switch has work. *)

val in_frames : t -> int
val out_frames : t -> int
val flood_extra : t -> int
val drop_unknown : t -> int
val drop_runt : t -> int
val drop_queue_full : t -> int
val drops : t -> int
val conserved : t -> bool
val pp : Format.formatter -> t -> unit
