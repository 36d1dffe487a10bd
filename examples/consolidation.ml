(* Server consolidation: run a small "datacenter" of heterogeneous
   guests on one hypervisor under the credit scheduler, dedupe their
   memory, and plan the full 50-VM fleet with FFD packing — the workflow
   the source presentation describes (20 hosts for 50 production VMs).

     dune exec examples/consolidation.exe *)

open Velum_util
open Velum_vmm
open Velum_guests

let () =
  Printf.printf "== Part 1: five guests sharing one host ==\n\n";
  let host = Host.create ~frames:8192 () in
  let hyp = Hypervisor.create ~host () in

  (* A mix of roles: compute-heavy "app servers" with different weights
     and an I/O-ish guest doing syscalls. *)
  let guests =
    [
      ("erp-app", Workloads.cpu_spin ~iters:2_000_000L, 512);
      ("mssql", Workloads.cpu_spin ~iters:2_000_000L, 1024);
      ("terminal", Workloads.syscall_loop ~count:2_000L, 256);
      ("web-1", Workloads.cpu_spin ~iters:2_000_000L, 256);
      ("web-2", Workloads.cpu_spin ~iters:2_000_000L, 256);
    ]
  in
  let vms =
    List.map
      (fun (name, user, weight) ->
        let setup = Images.plan ~user () in
        let vm =
          Hypervisor.create_vm hyp ~name ~mem_frames:setup.Images.frames ~weight
            ~entry:Images.entry ()
        in
        Images.load_vm vm setup;
        vm)
      guests
  in
  let used_before = Frame_alloc.used_count host.Host.alloc in
  ignore (Hypervisor.run hyp ~budget:20_000_000L);
  let stats = Mem_mgr.share_pass vms in
  let used_after = Frame_alloc.used_count host.Host.alloc in

  let t =
    Tablefmt.create
      [ ("vm", Tablefmt.Left); ("weight", Tablefmt.Right);
        ("guest Mcyc", Tablefmt.Right); ("exits", Tablefmt.Right) ]
  in
  List.iter
    (fun vm ->
      let w = vm.Vm.vcpus.(0).Vcpu.weight in
      Tablefmt.add_row t
        [ vm.Vm.name; string_of_int w;
          Tablefmt.cell_f ~decimals:2 (Int64.to_float (Vm.guest_cycles vm) /. 1e6);
          Tablefmt.cell_i (Monitor.total_exits vm.Vm.monitor) ])
    vms;
  Tablefmt.print t;
  Printf.printf "page sharing: %d frames scanned, %d merged, %d freed (%d -> %d used)\n\n"
    stats.Mem_mgr.scanned stats.Mem_mgr.shared stats.Mem_mgr.freed used_before used_after;

  Printf.printf "== Part 2: planning the 50-VM fleet ==\n\n";
  let mk name n cpu mem =
    List.init n (fun i ->
        { Placement.vm_name = Printf.sprintf "%s-%d" name i; cpu_units = cpu; mem_mb = mem })
  in
  let fleet =
    List.concat
      [
        mk "ad-dc" 4 50 2048; mk "terminal" 8 200 4096; mk "erp-app" 6 150 4096;
        mk "mssql" 6 250 8192; mk "mail" 2 200 8192; mk "web" 8 100 2048;
        mk "antivirus" 2 100 2048; mk "devtest" 10 100 2048; mk "legacy-dos" 4 25 512;
      ]
  in
  let spec = Placement.default_host in
  let plan = Placement.first_fit_decreasing spec fleet in
  let report = Placement.cost_savings spec fleet plan in
  Printf.printf "%d VMs -> %d hosts (%.1f VMs/host, cpu %.0f%%, mem %.0f%% utilized)\n"
    (List.length fleet) plan.Placement.hosts_used
    (Placement.consolidation_ratio plan)
    (100.0 *. plan.Placement.cpu_utilization)
    (100.0 *. plan.Placement.mem_utilization);
  Printf.printf "power: %.0f W -> %.0f W (cooling included)\n"
    report.Placement.watts_before report.Placement.watts_after;
  Printf.printf "savings: %.0f EUR/year total, %.0f EUR/year per displaced server\n"
    report.Placement.annual_euro_saved report.Placement.euro_saved_per_displaced_server
