(** Translation lookaside buffer.

    Caches virtual-page → machine-frame translations with permission and
    dirty state.  Fully associative with round-robin replacement, so
    behaviour is deterministic.  A store through an entry installed
    without the dirty bit misses, forcing a re-walk that sets the page
    dirty — matching how hardware keeps D bits precise.

    Which entry may serve which access is decided here, once: every
    translator (native, shadow, nested, shadow with guest paging off)
    and the micro-TLB's fill ask {!probe}.  A translator fills with
    {!insert} an entry whose permissions say exactly what it may serve. *)

open Velum_isa

type entry = {
  vpn : int64;  (** virtual page number (4 KiB granule); for a superpage
                    entry this is the first vpn the superpage covers *)
  ppn : int64;  (** machine frame (host physical in a VM context); for a
                    superpage entry, the 512-aligned base frame *)
  perms : Pte.perms;  (** effective permissions *)
  dirty_ok : bool;  (** stores may hit without a re-walk *)
  mmio : bool;  (** translation targets an MMIO page; ppn is then the
                    guest-physical page number of the device page *)
  superpage : bool;  (** one entry covers a whole 2 MiB region — the TLB
                         reach benefit of large pages *)
}

type t

val create : size:int -> t
(** @raise Invalid_argument if [size <= 0]. *)

val probe : t -> vpn:int64 -> Arch.access -> user:bool -> int
(** [probe t ~vpn access ~user] is the hit rule.  The entry serving
    [vpn] is its 4 KiB entry, else the superpage entry covering it; it
    hits when its permissions allow [access] (the user bit too when
    [user]), and for a store only when its dirty bit is hardened
    ([dirty_ok]).  A hit is a non-negative immediate holding the 4 KiB
    frame that serves [vpn] (for a superpage, the base frame plus
    [vpn]'s offset in it) and the entry's MMIO flag — read it with
    {!hit_frame}, {!hit_mmio} and {!hit_pa}; a miss is [-1].  Probing
    counts nothing: callers report through {!note_hit}/{!note_miss}. *)

val hit_frame : int -> int
val hit_mmio : int -> bool

val hit_pa : int -> va:int64 -> int
(** [hit_pa hit ~va] — the address at [va]'s page offset in the hit's
    frame. *)

val lookup : t -> vpn:int64 -> entry option
(** [lookup t ~vpn] — the entry {!probe} would judge, whatever the
    access: the observer reference models compare against. *)

val insert : t -> entry -> unit
(** [insert t e] fills an entry, evicting round-robin when full and
    replacing any existing entry for the same VPN. *)

val flush : t -> unit
(** Drop every entry, in time proportional to the entries live. *)

val flush_vpn : t -> int64 -> unit

val size : t -> int
(** [create]'s [size]. *)

val hits : t -> int
val misses : t -> int
(** Callers report hits/misses via {!note_hit} / {!note_miss}; the TLB
    itself cannot tell a permission-upgrade re-walk from a cold miss. *)

val evictions : t -> int
(** Live entries removed individually — capacity (round-robin) victims,
    same-VPN replacements, and targeted {!flush_vpn} shootdowns.  Full
    {!flush}es are counted separately. *)

val flushes : t -> int
(** Number of full {!flush} calls. *)

val generation : t -> int
(** Monotonic counter bumped whenever any live entry is removed or
    replaced ({!flush}, {!flush_vpn}, eviction, same-VPN refill), and
    when a 4 KiB fill shadows a live superpage entry for the same VPN.
    Other fills into empty slots do not bump it, so a consumer that
    observed [probe] hit an entry may keep assuming it hits that
    entry — unchanged — for as long as the generation stays equal.  It
    is the fast path of the certificate below. *)

(** {1 Per-slot certificates}

    The generation moves on every eviction anywhere in the TLB, so a
    working set larger than the TLB invalidates every certificate on
    every capacity miss.  A finer certificate names the one entry a
    consumer relies on: the 4 KiB slot holding it, and that slot's
    version, which is bumped whenever the slot's live entry leaves
    ({!flush}, {!flush_vpn}, eviction, same-VPN refill).  While the
    version is unchanged the slot holds the same entry, and [probe]
    judges it for its VPN (4 KiB entries are consulted first).  A VPN
    served by a superpage entry has no slot ({!cert_slot} is [-1]) and
    is certified by the generation alone. *)

val cert_slot : t -> vpn:int64 -> int
(** The 4 KiB slot holding [vpn]'s entry, or [-1]. *)

val version : t -> int -> int
(** [version t slot] is the slot's current version ([0] for [-1]). *)

val holds : t -> slot:int -> version:int -> bool
(** [holds t ~slot ~version] — [slot] is a slot and still at [version]:
    the entry certified then is still there, unchanged. *)

val note_hit : t -> unit
val note_miss : t -> unit
val reset_stats : t -> unit
(** Resets hit/miss/eviction/flush counters; the generation is preserved
    (it is a correctness token, not a statistic). *)
