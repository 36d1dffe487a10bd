(** Server-consolidation planning: pack VM reservations onto physical
    hosts and estimate the power/cost savings of the consolidation —
    Experiment E9, the one quantitative claim in the supplied text
    (≈3-4 VMs per host, ≈200-250 €/server/year of power+cooling). *)

type vm_req = {
  vm_name : string;
  cpu_units : int;  (** 100 = one core's worth of sustained demand *)
  mem_mb : int;
}

type host_spec = {
  cores : int;
  ram_mb : int;
  watts_idle : float;  (** power drawn by a host that is on *)
  watts_per_core : float;  (** additional power per busy core *)
}

val default_host : host_spec
(** 8 cores, 16 GiB, 120 W idle + 20 W/core — a modest 2010-era server. *)

val deck_fleet : vm_req list
(** The slide deck's 50-VM deployment (E9): domain controllers, terminal
    servers, ERP app servers, SQL boxes, a mail suite, web servers,
    antivirus, developer test machines and legacy DOS guests, named
    [role-i]. *)

type assignment = { host_index : int; req : vm_req }

type plan = {
  hosts_used : int;
  assignments : assignment list;
  cpu_utilization : float;  (** mean over used hosts, 0..1 *)
  mem_utilization : float;
}

val first_fit_decreasing : host_spec -> vm_req list -> plan
(** FFD bin packing on (cpu, memory) — sorted by the max of the two
    normalized dimensions.  Opens a new host when a VM fits nowhere.

    @raise Invalid_argument if some VM exceeds a whole host. *)

val consolidation_ratio : plan -> float
(** VMs per used host. *)

(** Incremental placement for a live cluster: a pool of fixed hosts
    whose occupancy changes one admission/evacuation/drain at a time.
    Generalizes the single-shot FFD with anti-affinity groups (no two
    members of one group share a host) and per-host headroom
    reservations (units admission may not touch — kept free so
    evacuations always have somewhere to land).  All state is explicit
    and deterministic; the control plane drives it from the coordinator
    phase. *)
module Pool : sig
  type host_state = private {
    host_id : int;
    cap_units : int;  (** total capacity, in caller-chosen units *)
    headroom : int;  (** reserved units at the top of each host *)
    mutable used_units : int;
    mutable placed : int;  (** VMs currently on this host *)
    mutable open_ : bool;  (** cordoned hosts are closed to placement *)
    mutable groups : int list;  (** anti-affinity groups present *)
  }

  type t

  val create : hosts:int -> cap_units:int -> headroom:int -> t
  (** Uniform pool.  @raise Invalid_argument unless
      [0 <= headroom < cap_units] and both counts are positive. *)

  val host : t -> int -> host_state

  val cordon : t -> int -> unit
  (** Close a host to new placements (maintenance intent). *)

  val uncordon : t -> int -> unit

  val choose : ?use_headroom:bool -> ?group:int -> t -> units:int -> int option
  (** First-fit: lowest-indexed open host with room and no anti-affinity
      conflict.  Ordinary admission respects headroom; evacuation passes
      [~use_headroom:true] to spend the reserve it exists for.  Returns
      the host index without committing. *)

  val commit : t -> int -> units:int -> group:int option -> unit

  val release : t -> int -> units:int -> group:int option -> unit
  (** [release] assumes at most one member of a group per host — which
      [choose] enforced on the way in. *)

  val shrink : t -> int -> units:int -> unit
  (** Reduce a host's used units without unplacing anything — the
      accounting half of ballooning a resident VM down under overload. *)

  val consolidation : t -> float
  (** Placed VMs per host actually holding at least one VM (the live
      analogue of {!consolidation_ratio}, E9's headline number). *)
end

type cost_report = {
  unconsolidated_hosts : int;  (** one VM per host *)
  consolidated_hosts : int;
  watts_before : float;
  watts_after : float;
  annual_kwh_saved : float;
  annual_euro_saved : float;
  euro_saved_per_displaced_server : float;
}

val cost_savings : host_spec -> vm_req list -> plan -> cost_report
(** Power model: each powered-on host draws [watts_idle] plus
    [watts_per_core × busy-cores]; consolidation removes idle draw of
    displaced hosts.  Cooling adds 60% to IT power; electricity costs
    0.12 €/kWh. *)
