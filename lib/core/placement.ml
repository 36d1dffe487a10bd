type vm_req = { vm_name : string; cpu_units : int; mem_mb : int }

type host_spec = {
  cores : int;
  ram_mb : int;
  watts_idle : float;
  watts_per_core : float;
}

let default_host = { cores = 8; ram_mb = 16384; watts_idle = 120.0; watts_per_core = 20.0 }

let deck_fleet =
  let mk name n cpu mem =
    List.init n (fun i ->
        { vm_name = Printf.sprintf "%s-%d" name i; cpu_units = cpu; mem_mb = mem })
  in
  List.concat
    [
      mk "ad-dc" 4 50 2048;
      mk "terminal" 8 200 4096;
      mk "erp-app" 6 150 4096;
      mk "mssql" 6 250 8192;
      mk "mail" 2 200 8192;
      mk "web" 8 100 2048;
      mk "antivirus" 2 100 2048;
      mk "devtest" 10 100 2048;
      mk "legacy-dos" 4 25 512;
    ]

type assignment = { host_index : int; req : vm_req }

type plan = {
  hosts_used : int;
  assignments : assignment list;
  cpu_utilization : float;
  mem_utilization : float;
}

type bin = { mutable cpu_left : int; mutable mem_left : int }

let first_fit_decreasing spec reqs =
  let cpu_cap = spec.cores * 100 in
  List.iter
    (fun r ->
      if r.cpu_units > cpu_cap || r.mem_mb > spec.ram_mb then
        invalid_arg (Printf.sprintf "Placement: %s exceeds a whole host" r.vm_name))
    reqs;
  (* Sort by dominant normalized dimension, largest first. *)
  let key r =
    Float.max
      (float_of_int r.cpu_units /. float_of_int cpu_cap)
      (float_of_int r.mem_mb /. float_of_int spec.ram_mb)
  in
  let sorted = List.sort (fun a b -> compare (key b) (key a)) reqs in
  let bins : bin array ref = ref [||] in
  let assignments = ref [] in
  let place r =
    let fits b = b.cpu_left >= r.cpu_units && b.mem_left >= r.mem_mb in
    let idx =
      let found = ref None in
      Array.iteri
        (fun i b -> if !found = None && fits b then found := Some i)
        !bins;
      match !found with
      | Some i -> i
      | None ->
          bins := Array.append !bins [| { cpu_left = cpu_cap; mem_left = spec.ram_mb } |];
          Array.length !bins - 1
    in
    let b = !bins.(idx) in
    b.cpu_left <- b.cpu_left - r.cpu_units;
    b.mem_left <- b.mem_left - r.mem_mb;
    assignments := { host_index = idx; req = r } :: !assignments
  in
  List.iter place sorted;
  let used = Array.length !bins in
  let cpu_util =
    if used = 0 then 0.0
    else
      Array.fold_left
        (fun acc b -> acc +. (float_of_int (cpu_cap - b.cpu_left) /. float_of_int cpu_cap))
        0.0 !bins
      /. float_of_int used
  in
  let mem_util =
    if used = 0 then 0.0
    else
      Array.fold_left
        (fun acc b ->
          acc +. (float_of_int (spec.ram_mb - b.mem_left) /. float_of_int spec.ram_mb))
        0.0 !bins
      /. float_of_int used
  in
  {
    hosts_used = used;
    assignments = List.rev !assignments;
    cpu_utilization = cpu_util;
    mem_utilization = mem_util;
  }

let consolidation_ratio plan =
  if plan.hosts_used = 0 then 0.0
  else float_of_int (List.length plan.assignments) /. float_of_int plan.hosts_used

(* ---- incremental placement for a live cluster ----

   [first_fit_decreasing] above is single-shot: it owns all the bins and
   sees every request at once.  A control plane instead holds a pool of
   *fixed* hosts whose occupancy changes as VMs are admitted, evacuated
   and drained, and needs first-fit decisions one at a time — with two
   datacenter policies layered on: anti-affinity groups (no two replicas
   of one service on the same host) and per-host headroom reservations
   (capacity admission may not touch, kept free to absorb evacuations). *)

module Pool = struct
  type host_state = {
    host_id : int;
    cap_units : int;
    headroom : int;
    mutable used_units : int;
    mutable placed : int;
    mutable open_ : bool;
    mutable groups : int list;
  }

  type t = { hosts : host_state array }

  let create ~hosts ~cap_units ~headroom =
    if hosts <= 0 then invalid_arg "Placement.Pool.create: hosts";
    if cap_units <= 0 then invalid_arg "Placement.Pool.create: cap_units";
    if headroom < 0 || headroom >= cap_units then
      invalid_arg "Placement.Pool.create: headroom must be in [0, cap_units)";
    {
      hosts =
        Array.init hosts (fun host_id ->
            {
              host_id;
              cap_units;
              headroom;
              used_units = 0;
              placed = 0;
              open_ = true;
              groups = [];
            });
    }

  let host t i = t.hosts.(i)
  let cordon t i = t.hosts.(i).open_ <- false
  let uncordon t i = t.hosts.(i).open_ <- true

  let fits h ~units ~group ~use_headroom =
    let cap = if use_headroom then h.cap_units else h.cap_units - h.headroom in
    h.open_
    && h.used_units + units <= cap
    && match group with None -> true | Some g -> not (List.mem g h.groups)

  let choose ?(use_headroom = false) ?group t ~units =
    let n = Array.length t.hosts in
    let rec go i =
      if i >= n then None
      else if fits t.hosts.(i) ~units ~group ~use_headroom then Some i
      else go (i + 1)
    in
    go 0

  let commit t i ~units ~group =
    let h = t.hosts.(i) in
    h.used_units <- h.used_units + units;
    h.placed <- h.placed + 1;
    match group with
    | Some g when not (List.mem g h.groups) -> h.groups <- g :: h.groups
    | _ -> ()

  let shrink t i ~units =
    let h = t.hosts.(i) in
    h.used_units <- max 0 (h.used_units - units)

  let release t i ~units ~group =
    let h = t.hosts.(i) in
    h.used_units <- max 0 (h.used_units - units);
    h.placed <- max 0 (h.placed - 1);
    match group with
    | Some g -> h.groups <- List.filter (fun g' -> g' <> g) h.groups
    | None -> ()

  let consolidation t =
    let vms = Array.fold_left (fun acc h -> acc + h.placed) 0 t.hosts in
    let used =
      Array.fold_left (fun acc h -> acc + if h.placed > 0 then 1 else 0) 0 t.hosts
    in
    if used = 0 then 0.0 else float_of_int vms /. float_of_int used
end

type cost_report = {
  unconsolidated_hosts : int;
  consolidated_hosts : int;
  watts_before : float;
  watts_after : float;
  annual_kwh_saved : float;
  annual_euro_saved : float;
  euro_saved_per_displaced_server : float;
}

let busy_watts spec reqs =
  (* Total dynamic power is workload-dependent, not placement-dependent:
     the same busy cores burn on either side. *)
  let units = List.fold_left (fun acc r -> acc + r.cpu_units) 0 reqs in
  spec.watts_per_core *. (float_of_int units /. 100.0)

(* Electricity price, in euros per kWh. *)
let euro_per_kwh = 0.12

(* Cooling power as a fraction of IT power. *)
let cooling_overhead = 0.6

let cost_savings spec reqs plan =
  let n_vms = List.length reqs in
  let dynamic = busy_watts spec reqs in
  let before = (float_of_int n_vms *. spec.watts_idle) +. dynamic in
  let after = (float_of_int plan.hosts_used *. spec.watts_idle) +. dynamic in
  let with_cooling w = w *. (1.0 +. cooling_overhead) in
  let hours = 24.0 *. 365.0 in
  let kwh_saved = (with_cooling before -. with_cooling after) *. hours /. 1000.0 in
  let euro = kwh_saved *. euro_per_kwh in
  let displaced = n_vms - plan.hosts_used in
  {
    unconsolidated_hosts = n_vms;
    consolidated_hosts = plan.hosts_used;
    watts_before = with_cooling before;
    watts_after = with_cooling after;
    annual_kwh_saved = kwh_saved;
    annual_euro_saved = euro;
    euro_saved_per_displaced_server =
      (if displaced <= 0 then 0.0 else euro /. float_of_int displaced);
  }
