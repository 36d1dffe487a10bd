(* Benchmark harness: regenerates every table and figure of the
   evaluation (experiments E1-E11 in DESIGN.md / EXPERIMENTS.md).

   All experiment metrics are *simulated cycles* and are deterministic;
   only E18, E19 and ENGINE measure wall-clock time.

   Usage: main.exe [--only E4 E7 ...] [--quick] *)

open Velum_util
open Velum_devices
open Velum_vmm
open Velum_guests

let quick = ref false
let only : string list ref = ref []

let selected name = !only = [] || List.mem name !only

let section name title =
  if selected name then begin
    Printf.printf "\n================================================================\n";
    Printf.printf "%s — %s\n" name title;
    Printf.printf "================================================================\n\n";
    true
  end
  else false

(* ------------------------------------------------------------------ *)
(* Harness helpers                                                     *)
(* ------------------------------------------------------------------ *)

let scale l q = if !quick then q else l

let run_native setup =
  let platform = Images.boot_native setup in
  (match Platform.run platform with
  | Platform.Halted -> ()
  | Platform.Out_of_budget -> failwith "native run: out of budget"
  | Platform.Deadlock -> failwith "native run: deadlock");
  (platform, Platform.cycles platform)

(* Write [file] as one JSON object: the [header] lines (each ending in
   ",\n"), then a [key] array (default "benchmarks") of [rows], one
   object per row. *)
let write_json ?(header = "") ?(key = "benchmarks") file rows =
  let oc = open_out file in
  Printf.fprintf oc "{\n%s  \"%s\": [\n%s\n  ]\n}\n" header key
    (String.concat ",\n" rows);
  close_out oc

(* Run [hyp] until every VM halts; [what] names the run on failure. *)
let run_to_halt ?budget hyp what =
  match Hypervisor.run ?budget hyp with
  | Hypervisor.All_halted -> ()
  | o ->
      failwith
        (Printf.sprintf "%s did not halt (%s)" what
           (match o with
           | Hypervisor.Out_of_budget -> "budget"
           | Hypervisor.Idle_deadlock -> "deadlock"
           | _ -> "?"))

(* Boot [setup] alone on a fresh host, run it to halt, and return the VM
   with its total (guest + VMM) cycles.  [trace] is attached before the
   run. *)
let run_vm ?(name = "bench") ?paging ?pv ?cost ?tlb_size ?exec_mode ?engine ?trace setup =
  let hyp, vm = Images.boot ?cost ~name ?paging ?pv ?tlb_size ?exec_mode ?engine setup in
  Option.iter (Hypervisor.set_trace hyp) trace;
  run_to_halt ~budget:20_000_000_000L hyp (name ^ " run");
  let total = Int64.add (Vm.guest_cycles vm) (Vm.vmm_cycles vm) in
  (vm, total)

(* Marginal cost of one "operation": run the same workload at two sizes
   and divide the cycle delta by the op delta — boot and fixed costs
   cancel. *)
let marginal_native ~build ~n1 ~n2 =
  let _, c1 = run_native (build n1) in
  let _, c2 = run_native (build n2) in
  Int64.to_float (Int64.sub c2 c1) /. float_of_int (n2 - n1)

let marginal_vm ?paging ?pv ?exec_mode ~build ~n1 ~n2 () =
  let _, c1 = run_vm ?paging ?pv ?exec_mode (build n1) in
  let _, c2 = run_vm ?paging ?pv ?exec_mode (build n2) in
  Int64.to_float (Int64.sub c2 c1) /. float_of_int (n2 - n1)

let mean_exit_cycles vm kind =
  let n = Monitor.count vm.Vm.monitor kind in
  if n = 0 then 0.0 else Int64.to_float (Monitor.cycles vm.Vm.monitor kind) /. float_of_int n

(* ------------------------------------------------------------------ *)
(* E1 — Table 1: VM-exit microcosts by exit type                       *)
(* ------------------------------------------------------------------ *)

let e1 () =
  if section "E1" "Table 1: VM-exit service cost by exit type (cycles)" then begin
    let t =
      Tablefmt.create
        [ ("exit type", Tablefmt.Left); ("count", Tablefmt.Right);
          ("mean cycles", Tablefmt.Right) ]
    in
    let row name vm kind =
      Tablefmt.add_row t
        [ name; Tablefmt.cell_i (Monitor.count vm.Vm.monitor kind);
          Tablefmt.cell_f (mean_exit_cycles vm kind) ]
    in
    let n = if !quick then 100L else 400L in
    (* csr reads: gettime syscalls execute csrr time in the guest kernel *)
    let vm, _ =
      run_vm (Images.plan ~user:(Workloads.syscall_stress ~num:Abi.sys_gettime ~count:n) ())
    in
    row "csr read (csrr time)" vm Monitor.E_csr;
    (* trap reflection: null syscalls *)
    let vm, _ = run_vm (Images.plan ~user:(Workloads.syscall_loop ~count:n) ()) in
    row "guest trap (ecall reflect)" vm Monitor.E_guest_trap;
    (* port I/O: console output through the UART port *)
    let vm, _ = run_vm (Images.plan ~user:(Workloads.hello ()) ()) in
    row "port i/o (console)" vm Monitor.E_port_io;
    (* MMIO: emulated block device register programming *)
    let vm, _ =
      run_vm
        (Images.plan ~heap_pages:8
           ~user:(Workloads.blk_read ~sector:0 ~count:2 ~reps:(Int64.to_int n / 8)) ())
    in
    row "mmio (device register)" vm Monitor.E_mmio;
    (* trapped guest page-table write (shadow paging) *)
    let vm, _ =
      run_vm ~paging:Vm.Shadow_paging
        (Images.plan ~user:(Workloads.pt_churn ~batch:8 ~count:(Int64.to_int n / 8) ()) ())
    in
    row "pt write (shadow)" vm Monitor.E_pt_write;
    row "hidden fault (shadow fill)" vm Monitor.E_shadow_fill;
    (* hypercall *)
    let vm, _ =
      run_vm ~pv:Vm.full_pv
        (Images.plan ~pv_console:true ~user:(Workloads.hello ()) ())
    in
    row "hypercall (pv console)" vm Monitor.E_hypercall;
    Tablefmt.print t
  end

(* ------------------------------------------------------------------ *)
(* E2 — Table 2: privileged-operation latency, native vs virtualized   *)
(* ------------------------------------------------------------------ *)

let e2 () =
  if section "E2" "Table 2: operation latency (cycles), native vs virtualized" then begin
    let t =
      Tablefmt.create
        [ ("operation", Tablefmt.Left); ("native", Tablefmt.Right);
          ("shadow", Tablefmt.Right); ("nested", Tablefmt.Right);
          ("pv", Tablefmt.Right); ("worst/native", Tablefmt.Right) ]
    in
    let n1, n2 = if !quick then (50, 150) else (200, 800) in
    let cn1, cn2 = if !quick then (10, 30) else (25, 100) in
    let syscall n = Images.plan ~user:(Workloads.syscall_loop ~count:(Int64.of_int n)) () in
    let sy_nat = marginal_native ~build:syscall ~n1 ~n2 in
    let sy_sh = marginal_vm ~paging:Vm.Shadow_paging ~build:syscall ~n1 ~n2 () in
    let sy_ne = marginal_vm ~paging:Vm.Nested_paging ~build:syscall ~n1 ~n2 () in
    Tablefmt.add_row t
      [ "null syscall"; Tablefmt.cell_f sy_nat; Tablefmt.cell_f sy_sh;
        Tablefmt.cell_f sy_ne; "-"; Tablefmt.cell_f (Float.max sy_sh sy_ne /. sy_nat) ];
    let churn n = Images.plan ~user:(Workloads.pt_churn ~batch:16 ~count:n ()) () in
    let churn_pv n =
      Images.plan ~pv_pt:true ~user:(Workloads.pt_churn ~batch:16 ~count:n ()) ()
    in
    let per_page v = v /. 16.0 in
    let pt_nat = per_page (marginal_native ~build:churn ~n1:cn1 ~n2:cn2) in
    let pt_sh = per_page (marginal_vm ~paging:Vm.Shadow_paging ~build:churn ~n1:cn1 ~n2:cn2 ()) in
    let pt_ne = per_page (marginal_vm ~paging:Vm.Nested_paging ~build:churn ~n1:cn1 ~n2:cn2 ()) in
    let pt_pv =
      per_page
        (marginal_vm ~paging:Vm.Shadow_paging ~pv:Vm.full_pv ~build:churn_pv ~n1:cn1 ~n2:cn2 ())
    in
    Tablefmt.add_row t
      [ "map+touch+unmap page"; Tablefmt.cell_f pt_nat; Tablefmt.cell_f pt_sh;
        Tablefmt.cell_f pt_ne; Tablefmt.cell_f pt_pv;
        Tablefmt.cell_f (pt_sh /. pt_nat) ];
    let gettime n =
      Images.plan ~user:(Workloads.syscall_stress ~num:Abi.sys_gettime ~count:(Int64.of_int n)) ()
    in
    let gt_nat = marginal_native ~build:gettime ~n1 ~n2 in
    let gt_sh = marginal_vm ~paging:Vm.Shadow_paging ~build:gettime ~n1 ~n2 () in
    let gt_ne = marginal_vm ~paging:Vm.Nested_paging ~build:gettime ~n1 ~n2 () in
    Tablefmt.add_row t
      [ "syscall + csr read"; Tablefmt.cell_f gt_nat; Tablefmt.cell_f gt_sh;
        Tablefmt.cell_f gt_ne; "-"; Tablefmt.cell_f (Float.max gt_sh gt_ne /. gt_nat) ];
    Tablefmt.print t
  end

(* ------------------------------------------------------------------ *)
(* E3 — Figure 1: workload slowdown vs native                          *)
(* ------------------------------------------------------------------ *)

let e3 () =
  if section "E3" "Figure 1: slowdown vs native, per workload" then begin
    let t =
      Tablefmt.create
        [ ("workload", Tablefmt.Left); ("native/op", Tablefmt.Right);
          ("shadow ×", Tablefmt.Right); ("nested ×", Tablefmt.Right) ]
    in
    let cases =
      [
        ( "cpu-bound (per 1k iters)",
          (fun n ->
            Images.plan ~user:(Workloads.cpu_spin ~iters:(Int64.of_int (n * 1000))) ()),
          (if !quick then (5, 20) else (20, 100)) );
        ( "syscall-heavy (per call)",
          (fun n -> Images.plan ~user:(Workloads.syscall_loop ~count:(Int64.of_int n)) ()),
          (if !quick then (50, 200) else (200, 1000)) );
        ( "tlb-miss-heavy (per iter, 256p)",
          (fun n ->
            Images.plan ~heap_pages:256
              ~user:(Workloads.memwalk ~pages:256 ~iters:n ~write:true) ()),
          (if !quick then (2, 6) else (4, 16)) );
        ( "pt-churn (per batch-16 iter)",
          (fun n -> Images.plan ~user:(Workloads.pt_churn ~batch:16 ~count:n ()) ()),
          (if !quick then (10, 30) else (25, 100)) );
      ]
    in
    List.iter
      (fun (name, build, (n1, n2)) ->
        let nat = marginal_native ~build ~n1 ~n2 in
        let sh = marginal_vm ~paging:Vm.Shadow_paging ~build ~n1 ~n2 () in
        let ne = marginal_vm ~paging:Vm.Nested_paging ~build ~n1 ~n2 () in
        Tablefmt.add_row t
          [ name; Tablefmt.cell_f nat; Tablefmt.cell_f ~decimals:3 (sh /. nat);
            Tablefmt.cell_f ~decimals:3 (ne /. nat) ])
      cases;
    Tablefmt.print t;
    Printf.printf
      "Expected shape: cpu-bound ~1.0x everywhere; syscall-heavy and pt-churn pay the\n\
       trap-and-emulate tax (shadow worst on pt-churn); tlb-miss-heavy pays the 2-D\n\
       walk tax under nested paging.\n"
  end

(* ------------------------------------------------------------------ *)
(* E4 — Figure 2: shadow vs nested paging crossover                    *)
(* ------------------------------------------------------------------ *)

let e4 () =
  if section "E4" "Figure 2: shadow vs nested paging (TLB-miss vs PT-update bound)" then begin
    let t =
      Tablefmt.create
        ~title:"(a) per-page-touch cycles vs working-set size (read+write walk)"
        [ ("wss pages", Tablefmt.Right); ("native", Tablefmt.Right);
          ("shadow", Tablefmt.Right); ("nested", Tablefmt.Right);
          ("nested/shadow", Tablefmt.Right) ]
    in
    let sizes = if !quick then [ 16; 128; 512 ] else [ 16; 64; 128; 256; 512; 1024 ] in
    List.iter
      (fun pages ->
        let build n =
          Images.plan ~heap_pages:pages
            ~user:(Workloads.memwalk ~pages ~iters:n ~write:true) ()
        in
        let n1, n2 = if !quick then (2, 6) else (4, 12) in
        let per_iter_to_touch v = v /. float_of_int pages in
        let nat = per_iter_to_touch (marginal_native ~build ~n1 ~n2) in
        let sh =
          per_iter_to_touch (marginal_vm ~paging:Vm.Shadow_paging ~build ~n1 ~n2 ())
        in
        let ne =
          per_iter_to_touch (marginal_vm ~paging:Vm.Nested_paging ~build ~n1 ~n2 ())
        in
        Tablefmt.add_row t
          [ string_of_int pages; Tablefmt.cell_f nat; Tablefmt.cell_f sh;
            Tablefmt.cell_f ne; Tablefmt.cell_f ~decimals:2 (ne /. sh) ])
      sizes;
    Tablefmt.print t;
    let t2 =
      Tablefmt.create ~title:"(b) page-table churn: cycles per page mapped+touched+unmapped (batch 16)"
        [ ("config", Tablefmt.Left); ("cycles/op", Tablefmt.Right);
          ("vs nested", Tablefmt.Right) ]
    in
    let build n = Images.plan ~user:(Workloads.pt_churn ~batch:16 ~count:n ()) () in
    let build_pv n =
      Images.plan ~pv_pt:true ~user:(Workloads.pt_churn ~batch:16 ~count:n ()) ()
    in
    let n1, n2 = if !quick then (10, 30) else (25, 100) in
    let per_page v = v /. 16.0 in
    let ne = per_page (marginal_vm ~paging:Vm.Nested_paging ~build ~n1 ~n2 ()) in
    let sh = per_page (marginal_vm ~paging:Vm.Shadow_paging ~build ~n1 ~n2 ()) in
    let pv =
      per_page
        (marginal_vm ~paging:Vm.Shadow_paging ~pv:Vm.full_pv ~build:build_pv ~n1 ~n2 ())
    in
    List.iter
      (fun (name, v) ->
        Tablefmt.add_row t2
          [ name; Tablefmt.cell_f v; Tablefmt.cell_f ~decimals:2 (v /. ne) ])
      [ ("nested (direct PT writes)", ne); ("shadow (trapped PT writes)", sh);
        ("shadow + PV batch updates", pv) ];
    Tablefmt.print t2;
    Printf.printf
      "Expected shape: (a) once the working set exceeds the TLB, nested pays the 2-D\n\
       walk on every miss (nested/shadow >> 1); (b) shadow pays an exit per PT write,\n\
       paravirtual updates claw most of it back, nested is near native.\n"
  end

(* ------------------------------------------------------------------ *)
(* E5 — Figure 3: I/O throughput, emulated vs paravirtual              *)
(* ------------------------------------------------------------------ *)

let e5 () =
  if section "E5" "Figure 3: block I/O cost, emulated MMIO vs virtio ring" then begin
    let t =
      Tablefmt.create
        [ ("sectors/op", Tablefmt.Right); ("emul cyc/KB", Tablefmt.Right);
          ("virtio cyc/KB", Tablefmt.Right); ("emul exits/op", Tablefmt.Right);
          ("virtio exits/op", Tablefmt.Right); ("speedup", Tablefmt.Right) ]
    in
    let sizes = if !quick then [ 1; 8 ] else [ 1; 4; 16; 32 ] in
    List.iter
      (fun sectors ->
        let heap = ((sectors * 512) / 4096) + 2 in
        let reps1, reps2 = if !quick then (4, 12) else (8, 32) in
        let build_e n =
          Images.plan ~heap_pages:heap
            ~user:(Workloads.blk_read ~sector:0 ~count:sectors ~reps:n) ()
        in
        let build_v n =
          Images.plan ~heap_pages:heap
            ~user:(Workloads.vblk_read ~sector:0 ~count:sectors ~reps:n) ()
        in
        let kb = float_of_int (sectors * 512) /. 1024.0 in
        let emul = marginal_vm ~build:build_e ~n1:reps1 ~n2:reps2 () /. kb in
        let virtio = marginal_vm ~build:build_v ~n1:reps1 ~n2:reps2 () /. kb in
        (* exits per op, from a single run *)
        let vm_e, _ = run_vm (build_e reps2) in
        let vm_v, _ = run_vm (build_v reps2) in
        let exits vm = float_of_int (Monitor.count vm.Vm.monitor Monitor.E_mmio) /. float_of_int reps2 in
        Tablefmt.add_row t
          [ string_of_int sectors; Tablefmt.cell_f emul; Tablefmt.cell_f virtio;
            Tablefmt.cell_f (exits vm_e); Tablefmt.cell_f (exits vm_v);
            Tablefmt.cell_f ~decimals:2 (emul /. virtio) ])
      sizes;
    Tablefmt.print t;
    Printf.printf
      "Expected shape: the ring batches submissions, so virtio needs fewer exits per\n\
       operation and wins most at small requests where per-exit overhead dominates.\n"
  end

(* ------------------------------------------------------------------ *)
(* E6 — Figure 4: scheduler fairness and weights                       *)
(* ------------------------------------------------------------------ *)

let e6 () =
  if section "E6" "Figure 4: CPU shares under weights (credit vs round-robin vs BVT)" then begin
    let weights = [ 256; 512; 1024 ] in
    let budget = if !quick then 30_000_000L else 120_000_000L in
    let shares sched_make =
      let host = Host.create ~frames:4096 () in
      let hyp = Hypervisor.create ~host ~sched:(sched_make ()) () in
      let setup = Images.plan ~user:(Workloads.cpu_spin ~iters:1_000_000_000L) () in
      let vms =
        List.map
          (fun w ->
            Images.create_vm hyp ~name:(Printf.sprintf "w%d" w) ~weight:w setup)
          weights
      in
      ignore (Hypervisor.run hyp ~budget);
      let cycles = List.map (fun vm -> Int64.to_float (Vm.guest_cycles vm)) vms in
      let total = List.fold_left ( +. ) 0.0 cycles in
      List.map (fun c -> c /. total) cycles
    in
    let t =
      Tablefmt.create
        [ ("scheduler", Tablefmt.Left); ("share w=256", Tablefmt.Right);
          ("share w=512", Tablefmt.Right); ("share w=1024", Tablefmt.Right);
          ("weighted Jain", Tablefmt.Right) ]
    in
    List.iter
      (fun (name, make) ->
        let s = shares make in
        let weighted =
          Array.of_list (List.map2 (fun share w -> share /. float_of_int w) s weights)
        in
        let jain = Stats.jain_fairness weighted in
        Tablefmt.add_row t
          (name
           :: List.map (fun v -> Tablefmt.cell_f ~decimals:3 v) s
          @ [ Tablefmt.cell_f ~decimals:3 jain ]))
      [
        ("credit", fun () -> Credit.create ());
        ("round-robin", fun () -> Round_robin.create ());
        ("bvt", fun () -> Bvt.create ());
      ];
    Tablefmt.print t;
    (* (b) CPU caps: a capped spinner sharing the host with an uncapped
       one lands on its ceiling; the uncapped one absorbs the slack. *)
    let t2 =
      Tablefmt.create ~title:"(b) credit-scheduler caps (capped vs uncapped spinner)"
        [ ("cap %", Tablefmt.Right); ("capped share", Tablefmt.Right);
          ("uncapped share", Tablefmt.Right) ]
    in
    List.iter
      (fun cap ->
        let host = Host.create ~frames:4096 () in
        let hyp = Hypervisor.create ~host () in
        let setup = Images.plan ~user:(Workloads.cpu_spin ~iters:1_000_000_000L) () in
        let capped = Images.create_vm hyp ~name:"capped" setup in
        let free = Images.create_vm hyp ~name:"free" setup in
        capped.Vm.vcpus.(0).Vcpu.cap <- cap;
        ignore (Hypervisor.run hyp ~budget);
        let total = Int64.to_float (Hypervisor.now hyp) in
        Tablefmt.add_row t2
          [ string_of_int cap;
            Tablefmt.cell_f ~decimals:3 (Int64.to_float (Vm.guest_cycles capped) /. total);
            Tablefmt.cell_f ~decimals:3 (Int64.to_float (Vm.guest_cycles free) /. total) ])
      [ 10; 25; 50 ];
    Tablefmt.print t2;
    Printf.printf
      "Expected shape: credit and BVT track the 1:2:4 weight ratio (weighted Jain\n\
       near 1.0); round-robin ignores weights and splits evenly (weighted Jain low);\n\
       caps pin the capped guest to its ceiling while the peer absorbs the slack.\n"
  end

(* ------------------------------------------------------------------ *)
(* E7 — Figure 5: live migration vs dirty rate                         *)
(* ------------------------------------------------------------------ *)

let e7 () =
  if section "E7" "Figure 5: migration total time and downtime vs dirty rate" then begin
    let t =
      Tablefmt.create
        [ ("dirty delay", Tablefmt.Right); ("strategy", Tablefmt.Left);
          ("total kcyc", Tablefmt.Right); ("downtime kcyc", Tablefmt.Right);
          ("pages", Tablefmt.Right); ("rounds", Tablefmt.Right);
          ("remote faults", Tablefmt.Right) ]
    in
    let delays = if !quick then [ 8000; 0 ] else [ 12000; 6000; 1000; 0 ] in
    List.iter
      (fun delay ->
        let strategies =
          [ ("stop-and-copy", `Stop); ("pre-copy", `Pre); ("post-copy", `Post) ]
        in
        List.iteri
          (fun i (name, strat) ->
            let setup =
              Images.plan ~heap_pages:128
                ~user:(Workloads.dirty_loop ~pages:96 ~delay) ()
            in
            let src, vm = Images.boot ~name:"mig" setup in
            let dst = Images.hypervisor setup in
            ignore (Hypervisor.run src ~budget:3_000_000L);
            let link = Link.create () in
            let _twin, r =
              match strat with
              | `Stop -> Migrate.stop_and_copy ~src ~dst ~vm ~link ()
              | `Pre -> Migrate.precopy ~src ~dst ~vm ~link ~max_rounds:12 ~stop_threshold:8 ()
              | `Post -> Migrate.postcopy ~src ~dst ~vm ~link ()
            in
            Tablefmt.add_row t
              [ (if i = 0 then string_of_int delay else "");
                name;
                Tablefmt.cell_f ~decimals:1
                  (Int64.to_float r.Migrate.total_cycles /. 1000.0);
                Tablefmt.cell_f ~decimals:1
                  (Int64.to_float r.Migrate.downtime_cycles /. 1000.0);
                Tablefmt.cell_i r.Migrate.pages_sent;
                string_of_int r.Migrate.rounds;
                Tablefmt.cell_i r.Migrate.remote_faults ])
          strategies;
        Tablefmt.add_separator t)
      delays;
    Tablefmt.print t;
    Printf.printf
      "Expected shape: stop-and-copy downtime = total; pre-copy downtime is a small\n\
       fraction but grows (and rounds/pages grow) as the dirty rate rises (smaller\n\
       delay); post-copy downtime stays minimal at the price of remote faults.\n"
  end

(* ------------------------------------------------------------------ *)
(* E8 — Figure 6: content-based page sharing                           *)
(* ------------------------------------------------------------------ *)

let e8 () =
  if section "E8" "Figure 6: page sharing savings vs number of identical VMs" then begin
    let t =
      Tablefmt.create
        [ ("VMs", Tablefmt.Right); ("frames before", Tablefmt.Right);
          ("frames after", Tablefmt.Right); ("saved", Tablefmt.Right);
          ("saved %", Tablefmt.Right) ]
    in
    let counts = if !quick then [ 2; 4 ] else [ 2; 4; 8; 16 ] in
    List.iter
      (fun n ->
        let setup = Images.plan ~user:(Workloads.cpu_spin ~iters:1_000_000_000L) () in
        let host = Host.create ~frames:((n * setup.Images.frames) + 2048) () in
        let hyp = Hypervisor.create ~host () in
        let vms =
          List.init n (fun i -> Images.create_vm hyp ~name:(Printf.sprintf "vm%d" i) setup)
        in
        ignore (Hypervisor.run hyp ~budget:(Int64.of_int (n * 1_500_000)));
        let before = Frame_alloc.used_count host.Host.alloc in
        ignore (Mem_mgr.share_pass vms);
        let after = Frame_alloc.used_count host.Host.alloc in
        Tablefmt.add_row t
          [ string_of_int n; Tablefmt.cell_i before; Tablefmt.cell_i after;
            Tablefmt.cell_i (before - after);
            Tablefmt.cell_f ~decimals:1
              (100.0 *. float_of_int (before - after) /. float_of_int before) ])
      counts;
    Tablefmt.print t;
    Printf.printf
      "Expected shape: identical VMs dedup to one copy, so savings approach\n\
       (N-1)/N of guest memory as N grows — the ESX content-sharing curve.\n"
  end

(* ------------------------------------------------------------------ *)
(* E9 — Table 3: server consolidation (the source text's claim)        *)
(* ------------------------------------------------------------------ *)

let e9 () =
  if section "E9" "Table 3: consolidating 50 servers (the slide deck's deployment)" then begin
    let fleet = Placement.deck_fleet in
    let spec = Placement.default_host in
    let plan = Placement.first_fit_decreasing spec fleet in
    let report = Placement.cost_savings spec fleet plan in
    let t =
      Tablefmt.create [ ("metric", Tablefmt.Left); ("value", Tablefmt.Right) ]
    in
    List.iter
      (fun (k, v) -> Tablefmt.add_row t [ k; v ])
      [
        ("VMs", Tablefmt.cell_i (List.length fleet));
        ("hosts before (1 VM/host)", Tablefmt.cell_i report.Placement.unconsolidated_hosts);
        ("hosts after (FFD)", Tablefmt.cell_i report.Placement.consolidated_hosts);
        ("consolidation ratio", Tablefmt.cell_f ~decimals:2 (Placement.consolidation_ratio plan));
        ("mean cpu utilization", Tablefmt.cell_f ~decimals:2 plan.Placement.cpu_utilization);
        ("mean mem utilization", Tablefmt.cell_f ~decimals:2 plan.Placement.mem_utilization);
        ("power before (W, incl cooling)", Tablefmt.cell_f ~decimals:0 report.Placement.watts_before);
        ("power after (W, incl cooling)", Tablefmt.cell_f ~decimals:0 report.Placement.watts_after);
        ("annual kWh saved", Tablefmt.cell_f ~decimals:0 report.Placement.annual_kwh_saved);
        ("annual € saved", Tablefmt.cell_f ~decimals:0 report.Placement.annual_euro_saved);
        ("€ saved / displaced server / year",
         Tablefmt.cell_f ~decimals:0 report.Placement.euro_saved_per_displaced_server);
      ];
    Tablefmt.print t;
    Printf.printf
      "Expected shape: ratio in the 3-4 VMs/host band and roughly 200-250 EUR per\n\
       displaced server per year of power+cooling — the numbers the deck reports\n\
       (20 hosts for 50 VMs, ~10k EUR/year overall).\n"
  end

(* ------------------------------------------------------------------ *)
(* E10 — Table 4: memory overcommit, balloon vs hypervisor swap        *)
(* ------------------------------------------------------------------ *)

let e10 () =
  if section "E10" "Table 4: reclaiming memory — balloon vs hypervisor swapping" then begin
    let wss = 48 in
    let heap = 128 in
    let iters = if !quick then 6000 else 20000 in
    let run_case reclaim =
      let setup =
        Images.plan ~heap_pages:heap
          ~user:(Workloads.memwalk ~pages:wss ~iters ~write:true) ()
      in
      let hyp, vm = Images.boot ~name:"oc" setup in
      (* boot + first touch pass, then reclaim, then measure the rest *)
      ignore (Hypervisor.run hyp ~budget:2_000_000L);
      let reclaimed = reclaim vm in
      let before = Int64.add (Vm.guest_cycles vm) (Vm.vmm_cycles vm) in
      run_to_halt ~budget:20_000_000_000L hyp "overcommit case";
      let after = Int64.add (Vm.guest_cycles vm) (Vm.vmm_cycles vm) in
      (reclaimed, Int64.to_float (Int64.sub after before),
       Monitor.count vm.Vm.monitor Monitor.E_swap_in)
    in
    let pages_to_reclaim = 64 in
    let _, base, _ = run_case (fun _ -> 0) in
    let balloon_reclaimed, balloon, balloon_swapins =
      (* The guest's balloon driver hands back pages it is not using:
         the heap tail beyond the working set. *)
      run_case (fun vm ->
          let heap_gfn = Int64.to_int (Int64.shift_right_logical Abi.heap_base 12) in
          let n = ref 0 in
          for p = heap - pages_to_reclaim to heap - 1 do
            if Vm.balloon_out vm (Int64.of_int (heap_gfn + p)) then incr n
          done;
          !n)
    in
    let evict_reclaimed, evict, evict_swapins =
      (* The hypervisor cannot see guest usage: it swaps out blindly and
         hits hot pages. *)
      run_case (fun vm -> Mem_mgr.evict vm ~n:pages_to_reclaim)
    in
    let t =
      Tablefmt.create
        [ ("policy", Tablefmt.Left); ("pages reclaimed", Tablefmt.Right);
          ("runtime kcyc", Tablefmt.Right); ("slowdown", Tablefmt.Right);
          ("swap-ins", Tablefmt.Right) ]
    in
    Tablefmt.add_row t
      [ "no reclaim (baseline)"; "0"; Tablefmt.cell_f ~decimals:0 (base /. 1000.0);
        "1.00"; "0" ];
    Tablefmt.add_row t
      [ "balloon (guest picks free pages)"; Tablefmt.cell_i balloon_reclaimed;
        Tablefmt.cell_f ~decimals:0 (balloon /. 1000.0);
        Tablefmt.cell_f ~decimals:2 (balloon /. base); Tablefmt.cell_i balloon_swapins ];
    Tablefmt.add_row t
      [ "hypervisor swap (blind eviction)"; Tablefmt.cell_i evict_reclaimed;
        Tablefmt.cell_f ~decimals:0 (evict /. 1000.0);
        Tablefmt.cell_f ~decimals:2 (evict /. base); Tablefmt.cell_i evict_swapins ];
    Tablefmt.print t;
    Printf.printf
      "Expected shape: ballooning reclaims the same pages at ~no cost because the\n\
       guest chooses victims; hypervisor swapping faults hot pages back in at disk\n\
       latency — the ESX balloon-vs-swap result.\n"
  end

(* ------------------------------------------------------------------ *)
(* E11 — Table 5: snapshot cost, full vs live (copy-on-write)          *)
(* ------------------------------------------------------------------ *)

let e11 () =
  if section "E11" "Table 5: snapshot cost vs memory size, full vs live COW" then begin
    let t =
      Tablefmt.create
        [ ("heap pages", Tablefmt.Right); ("vm frames", Tablefmt.Right);
          ("full bytes", Tablefmt.Right); ("live pages (COW)", Tablefmt.Right);
          ("cow breaks after", Tablefmt.Right) ]
    in
    let sizes = if !quick then [ 0; 128 ] else [ 0; 64; 256; 512 ] in
    List.iter
      (fun heap ->
        let user =
          if heap = 0 then Workloads.cpu_spin ~iters:1_000_000_000L
          else Workloads.dirty_loop ~pages:(min heap 16) ~delay:20
        in
        let setup = Images.plan ~heap_pages:heap ~user () in
        let hyp, vm =
          Images.boot ~host_frames:((3 * setup.Images.frames) + 1024) ~name:"snap" setup
        in
        ignore (Hypervisor.run hyp ~budget:3_000_000L);
        let full = Snapshot.capture vm in
        let live = Snapshot.capture_live vm in
        ignore (Hypervisor.run hyp ~budget:3_000_000L);
        let breaks = Monitor.count vm.Vm.monitor Monitor.E_cow_break in
        Tablefmt.add_row t
          [ string_of_int heap; Tablefmt.cell_i setup.Images.frames;
            Tablefmt.cell_i (Snapshot.size_bytes full);
            Tablefmt.cell_i (Snapshot.live_pages live); Tablefmt.cell_i breaks ];
        Snapshot.release_live live)
      sizes;
    Tablefmt.print t;
    Printf.printf
      "Expected shape: full snapshots scale with memory size; live snapshots cost\n\
       O(pages) metadata up front and then only pay per page actually rewritten.\n"
  end

(* ------------------------------------------------------------------ *)
(* E12 — Table 6: checkpoint replication overhead vs epoch length      *)
(* ------------------------------------------------------------------ *)

let e12 () =
  if section "E12" "Table 6: HA checkpoint replication — overhead vs epoch length" then begin
    let t =
      Tablefmt.create
        [ ("epoch kcyc", Tablefmt.Right); ("epochs", Tablefmt.Right);
          ("pages/epoch", Tablefmt.Right); ("overhead %", Tablefmt.Right);
          ("loss window kcyc", Tablefmt.Right) ]
    in
    let total = if !quick then 2_000_000L else 6_000_000L in
    List.iter
      (fun epoch_cycles ->
        let setup =
          Images.plan ~heap_pages:64 ~user:(Workloads.dirty_loop ~pages:48 ~delay:500) ()
        in
        let primary, vm = Images.boot ~name:"ha" setup in
        let backup = Images.hypervisor setup in
        ignore (Hypervisor.run primary ~budget:3_000_000L);
        let link = Link.create () in
        let epochs = Int64.to_int (Int64.div total epoch_cycles) in
        let _twin, st =
          Replicate.protect ~primary ~backup ~vm ~link ~epoch_cycles ~epochs ()
        in
        let per_epoch =
          float_of_int st.Replicate.pages_sent /. float_of_int (max 1 st.Replicate.epochs_completed)
        in
        let overhead =
          100.0
          *. Int64.to_float st.Replicate.paused_cycles
          /. Int64.to_float (Int64.add st.Replicate.paused_cycles st.Replicate.run_cycles)
        in
        Tablefmt.add_row t
          [ Tablefmt.cell_f ~decimals:0 (Int64.to_float epoch_cycles /. 1000.0);
            string_of_int st.Replicate.epochs_completed;
            Tablefmt.cell_f ~decimals:1 per_epoch;
            Tablefmt.cell_f ~decimals:1 overhead;
            Tablefmt.cell_f ~decimals:0 (Int64.to_float epoch_cycles /. 1000.0) ])
      (if !quick then [ 200_000L; 1_000_000L ]
       else [ 100_000L; 300_000L; 1_000_000L; 3_000_000L ]);
    Tablefmt.print t;
    Printf.printf
      "Expected shape: the Remus trade-off — short epochs bound the failover loss\n\
       window but pause the guest often (high overhead); long epochs amortize the\n\
       checkpoint cost at the price of losing more work on failure.\n"
  end

(* ------------------------------------------------------------------ *)
(* E14 — Figure 8: CPU-virtualization techniques head to head          *)
(* ------------------------------------------------------------------ *)

let e14 () =
  if section "E14"
       "Figure 8: trap-and-emulate vs binary translation vs paravirtual (slowdown vs native)"
  then begin
    let t =
      Tablefmt.create
        [ ("workload", Tablefmt.Left); ("native/op", Tablefmt.Right);
          ("t&e ×", Tablefmt.Right); ("bt ×", Tablefmt.Right);
          ("pv ×", Tablefmt.Right) ]
    in
    let n1, n2 = if !quick then (50, 200) else (200, 1000) in
    let cn1, cn2 = if !quick then (10, 30) else (25, 100) in
    (* syscall-heavy: PV has no syscall shortcut, BT translates the
       reflection path *)
    let syscall n = Images.plan ~user:(Workloads.syscall_loop ~count:(Int64.of_int n)) () in
    let sy_nat = marginal_native ~build:syscall ~n1 ~n2 in
    let sy_te = marginal_vm ~build:syscall ~n1 ~n2 () in
    let sy_bt = marginal_vm ~exec_mode:Vm.Binary_translation ~build:syscall ~n1 ~n2 () in
    Tablefmt.add_row t
      [ "syscall-heavy (per call)"; Tablefmt.cell_f sy_nat;
        Tablefmt.cell_f ~decimals:2 (sy_te /. sy_nat);
        Tablefmt.cell_f ~decimals:2 (sy_bt /. sy_nat); "-" ];
    (* pt-churn under shadow paging: the Adams-Agesen adaptive-BT case *)
    let churn n = Images.plan ~user:(Workloads.pt_churn ~batch:16 ~count:n ()) () in
    let churn_pv n =
      Images.plan ~pv_pt:true ~user:(Workloads.pt_churn ~batch:16 ~count:n ()) ()
    in
    let per_page v = v /. 16.0 in
    let pt_nat = per_page (marginal_native ~build:churn ~n1:cn1 ~n2:cn2) in
    let pt_te =
      per_page (marginal_vm ~paging:Vm.Shadow_paging ~build:churn ~n1:cn1 ~n2:cn2 ())
    in
    let pt_bt =
      per_page
        (marginal_vm ~paging:Vm.Shadow_paging ~exec_mode:Vm.Binary_translation
           ~build:churn ~n1:cn1 ~n2:cn2 ())
    in
    let pt_pv =
      per_page
        (marginal_vm ~paging:Vm.Shadow_paging ~pv:Vm.full_pv ~build:churn_pv ~n1:cn1
           ~n2:cn2 ())
    in
    Tablefmt.add_row t
      [ "pt-churn, shadow (per page)"; Tablefmt.cell_f pt_nat;
        Tablefmt.cell_f ~decimals:2 (pt_te /. pt_nat);
        Tablefmt.cell_f ~decimals:2 (pt_bt /. pt_nat);
        Tablefmt.cell_f ~decimals:2 (pt_pv /. pt_nat) ];
    Tablefmt.print t;
    Printf.printf
      "Expected shape (Adams & Agesen): software BT beats trap-and-emulate wherever\n\
       exits dominate — hot sensitive sites run inline after one translation — and\n\
       approaches (without reaching) the explicitly paravirtualized interface.\n"
  end

(* ------------------------------------------------------------------ *)
(* E13 — Figure 7: multiprocessor scaling                              *)
(* ------------------------------------------------------------------ *)

let e13 () =
  if section "E13" "Figure 7: makespan scaling with physical CPUs (8 VMs)" then begin
    let t =
      Tablefmt.create
        [ ("pcpus", Tablefmt.Right); ("makespan Mcyc", Tablefmt.Right);
          ("speedup", Tablefmt.Right); ("efficiency", Tablefmt.Right);
          ("Jain", Tablefmt.Right) ]
    in
    let vms = 8 in
    let iters = if !quick then 100_000L else 400_000L in
    let baseline = ref 0.0 in
    List.iter
      (fun pcpus ->
        let setup = Images.plan ~user:(Workloads.cpu_spin ~iters) () in
        let host = Host.create ~frames:((vms * setup.Images.frames) + 2048) () in
        let hyp = Hypervisor.create ~host ~pcpus () in
        let guests =
          List.init vms (fun i -> Images.create_vm hyp ~name:(Printf.sprintf "v%d" i) setup)
        in
        run_to_halt hyp "E13 fleet";
        let makespan = Int64.to_float (Hypervisor.now hyp) in
        if pcpus = 1 then baseline := makespan;
        let shares =
          Array.of_list (List.map (fun vm -> Int64.to_float (Vm.guest_cycles vm)) guests)
        in
        Tablefmt.add_row t
          [ string_of_int pcpus;
            Tablefmt.cell_f ~decimals:2 (makespan /. 1e6);
            Tablefmt.cell_f ~decimals:2 (!baseline /. makespan);
            Tablefmt.cell_f ~decimals:2 (!baseline /. makespan /. float_of_int pcpus);
            Tablefmt.cell_f ~decimals:3 (Stats.jain_fairness shares) ])
      [ 1; 2; 4; 8 ];
    Tablefmt.print t;
    Printf.printf
      "Expected shape: near-linear speedup while VMs outnumber pCPUs (the global\n\
       run queue is work-conserving), with fairness preserved at every width.\n"
  end

(* ------------------------------------------------------------------ *)
(* E15 — Table 7: application-level request/response benchmark         *)
(* ------------------------------------------------------------------ *)

let e15 () =
  if section "E15" "Table 7: client/server request-response across configurations" then begin
    let t =
      Tablefmt.create
        [ ("configuration", Tablefmt.Left); ("kcyc/request", Tablefmt.Right);
          ("exits/request", Tablefmt.Right); ("vs best", Tablefmt.Right) ]
    in
    let requests = if !quick then 20 else 60 in
    let run ~paging ~virtio ~exec_mode =
      let client_setup =
        Images.plan ~hcall_ok:true ~heap_pages:2
          ~user:(Workloads.net_client ~requests ~virtio_server:virtio) ()
      in
      let server_setup =
        Images.plan ~hcall_ok:true ~heap_pages:2
          ~user:(Workloads.net_server ~requests ~virtio) ()
      in
      let host =
        Host.create
          ~frames:(client_setup.Images.frames + server_setup.Images.frames + 1024)
          ()
      in
      let hyp = Hypervisor.create ~host () in
      let link = Link.create ~bytes_per_cycle:1.0 ~latency_cycles:300 () in
      let client =
        Images.create_vm hyp ~name:"client" ~paging ~exec_mode ~nic:(link, `A) client_setup
      in
      let server =
        Images.create_vm hyp ~name:"server" ~paging ~exec_mode ~nic:(link, `B) server_setup
      in
      run_to_halt hyp "E15 pair";
      let per_req =
        Int64.to_float (Hypervisor.now hyp) /. float_of_int requests /. 1000.0
      in
      let exits =
        float_of_int
          (Monitor.total_exits client.Vm.monitor + Monitor.total_exits server.Vm.monitor)
        /. float_of_int requests
      in
      (per_req, exits)
    in
    let rows =
      [
        ("trap&emulate, emulated blk", run ~paging:Vm.Nested_paging ~virtio:false
           ~exec_mode:Vm.Trap_emulate);
        ("trap&emulate, virtio blk", run ~paging:Vm.Nested_paging ~virtio:true
           ~exec_mode:Vm.Trap_emulate);
        ("shadow paging, emulated blk", run ~paging:Vm.Shadow_paging ~virtio:false
           ~exec_mode:Vm.Trap_emulate);
        ("binary translation, virtio blk", run ~paging:Vm.Nested_paging ~virtio:true
           ~exec_mode:Vm.Binary_translation);
      ]
    in
    let best =
      List.fold_left (fun acc (_, (v, _)) -> Float.min acc v) infinity rows
    in
    List.iter
      (fun (name, (per_req, exits)) ->
        Tablefmt.add_row t
          [ name; Tablefmt.cell_f ~decimals:1 per_req; Tablefmt.cell_f ~decimals:1 exits;
            Tablefmt.cell_f ~decimals:2 (per_req /. best) ])
      rows;
    Tablefmt.print t;
    Printf.printf
      "Expected shape: the application mixes syscalls, device I/O and idle waits,\n\
       so no single optimization dominates — but PV I/O and cheap exits (BT)\n\
       compound, and the ranking mirrors the microbenchmarks.\n"
  end

(* ------------------------------------------------------------------ *)
(* A1 — ablation: TLB reach vs nested-paging overhead                  *)
(* ------------------------------------------------------------------ *)

let a1 () =
  if section "A1" "Ablation: TLB size vs paging-mode overhead (128-page walk)" then begin
    let t =
      Tablefmt.create
        [ ("tlb entries", Tablefmt.Right); ("shadow cyc/touch", Tablefmt.Right);
          ("nested cyc/touch", Tablefmt.Right); ("nested/shadow", Tablefmt.Right) ]
    in
    let pages = 128 in
    let n1, n2 = if !quick then (2, 6) else (4, 12) in
    List.iter
      (fun tlb_size ->
        let build n =
          Images.plan ~heap_pages:pages
            ~user:(Workloads.memwalk ~pages ~iters:n ~write:true) ()
        in
        let per paging =
          let _, c1 = run_vm ~name:"abl" ~tlb_size ~paging (build n1) in
          let _, c2 = run_vm ~name:"abl" ~tlb_size ~paging (build n2) in
          Int64.to_float (Int64.sub c2 c1) /. float_of_int ((n2 - n1) * pages)
        in
        let sh = per Vm.Shadow_paging and ne = per Vm.Nested_paging in
        Tablefmt.add_row t
          [ string_of_int tlb_size; Tablefmt.cell_f sh; Tablefmt.cell_f ne;
            Tablefmt.cell_f ~decimals:2 (ne /. sh) ])
      (if !quick then [ 16; 256 ] else [ 16; 64; 128; 256 ]);
    Tablefmt.print t;
    Printf.printf
      "Expected shape: once the TLB covers the working set (>=128 entries + code\n\
       pages), both modes converge to hit-speed and the nested tax disappears —\n\
       TLB reach, not walk cost, decides whether nested paging hurts.\n"
  end

(* ------------------------------------------------------------------ *)
(* A2 — ablation: exit cost sensitivity                                *)
(* ------------------------------------------------------------------ *)

let a2 () =
  if section "A2" "Ablation: syscall slowdown vs world-switch cost" then begin
    let t =
      Tablefmt.create
        [ ("vmexit cycles", Tablefmt.Right); ("syscall cyc", Tablefmt.Right);
          ("slowdown vs native", Tablefmt.Right) ]
    in
    let n1, n2 = if !quick then (50, 150) else (200, 800) in
    let build n = Images.plan ~user:(Workloads.syscall_loop ~count:(Int64.of_int n)) () in
    let native = marginal_native ~build ~n1 ~n2 in
    List.iter
      (fun vmexit ->
        let cost = { Velum_machine.Cost_model.default with vmexit } in
        let run n = snd (run_vm ~name:"a2" ~cost (build n)) in
        let per = Int64.to_float (Int64.sub (run n2) (run n1)) /. float_of_int (n2 - n1) in
        Tablefmt.add_row t
          [ Tablefmt.cell_i vmexit; Tablefmt.cell_f per;
            Tablefmt.cell_f ~decimals:2 (per /. native) ])
      (if !quick then [ 200; 1600 ] else [ 100; 200; 400; 800; 1600; 3200 ]);
    Tablefmt.print t;
    Printf.printf
      "Expected shape: slowdown scales linearly with the world-switch cost — the\n\
       hardware-assist story (cheaper exits) in one column.\n"
  end

(* ------------------------------------------------------------------ *)
(* A3 — ablation: virtio batch size                                    *)
(* ------------------------------------------------------------------ *)

let a3 () =
  if section "A3" "Ablation: virtio ring batching (fixed 32-sector volume)" then begin
    let t =
      Tablefmt.create
        [ ("sectors/kick", Tablefmt.Right); ("kicks", Tablefmt.Right);
          ("mmio exits", Tablefmt.Right); ("total kcyc", Tablefmt.Right) ]
    in
    List.iter
      (fun batch ->
        let reps = 32 / batch in
        let setup =
          Images.plan ~heap_pages:8
            ~user:(Workloads.vblk_read ~sector:0 ~count:batch ~reps) ()
        in
        let vm, total = run_vm setup in
        Tablefmt.add_row t
          [ string_of_int batch;
            Tablefmt.cell_i (Velum_devices.Virtio_blk.kicks vm.Vm.vblk);
            Tablefmt.cell_i (Monitor.count vm.Vm.monitor Monitor.E_mmio);
            Tablefmt.cell_f ~decimals:1 (Int64.to_float total /. 1000.0) ])
      [ 1; 2; 4; 8; 16; 32 ];
    Tablefmt.print t;
    Printf.printf
      "Expected shape: bigger batches mean fewer kicks and fewer exits for the\n\
       same data volume — the amortization argument for ring-based PV I/O.\n"
  end

(* ------------------------------------------------------------------ *)
(* A4 — ablation: zero-page compression on the migration wire          *)
(* ------------------------------------------------------------------ *)

let a4 () =
  if section "A4" "Ablation: zero-page elision vs guest memory fill" then begin
    let t =
      Tablefmt.create
        [ ("dirty heap pages", Tablefmt.Right); ("plain KB", Tablefmt.Right);
          ("compressed KB", Tablefmt.Right); ("reduction", Tablefmt.Right) ]
    in
    List.iter
      (fun fill ->
        let run compress =
          let setup =
            Images.plan ~heap_pages:256
              ~user:(Workloads.memwalk ~pages:(max 1 fill) ~iters:1 ~write:true) ()
          in
          let src, vm = Images.boot ~name:"a4" setup in
          let dst = Images.hypervisor setup in
          run_to_halt src "a4 guest";
          let link = Link.create () in
          let _twin, r = Migrate.stop_and_copy ~compress ~src ~dst ~vm ~link () in
          r.Migrate.bytes_sent
        in
        let plain = run false and compressed = run true in
        Tablefmt.add_row t
          [ string_of_int fill;
            Tablefmt.cell_i (plain / 1024);
            Tablefmt.cell_i (compressed / 1024);
            Tablefmt.cell_f ~decimals:2
              (float_of_int plain /. float_of_int compressed) ])
      (if !quick then [ 0; 128 ] else [ 0; 32; 128; 256 ]);
    Tablefmt.print t;
    Printf.printf
      "Expected shape: the emptier the guest, the more the wire shrinks; with the\n\
       heap fully written the two converge (nothing left to elide but code gaps).\n"
  end

(* ------------------------------------------------------------------ *)
(* A5 — ablation: 2 MiB superpages and TLB reach                       *)
(* ------------------------------------------------------------------ *)

let a5 () =
  if section "A5" "Ablation: guest superpages (1024-page walk, 64-entry TLB)" then begin
    let t =
      Tablefmt.create
        [ ("config", Tablefmt.Left); ("4 KiB cyc/touch", Tablefmt.Right);
          ("2 MiB cyc/touch", Tablefmt.Right); ("speedup", Tablefmt.Right) ]
    in
    let pages = 1024 in
    let n1, n2 = if !quick then (2, 6) else (4, 12) in
    let build super n =
      Images.plan ~heap_pages:pages ~heap_superpages:super
        ~user:(Workloads.memwalk ~pages ~iters:n ~write:true) ()
    in
    let native super =
      let c1 = snd (run_native (build super n1)) in
      let c2 = snd (run_native (build super n2)) in
      Int64.to_float (Int64.sub c2 c1) /. float_of_int ((n2 - n1) * pages)
    in
    let virt paging super =
      let per n =
        let _, c = run_vm ~paging (build super n) in
        c
      in
      Int64.to_float (Int64.sub (per n2) (per n1)) /. float_of_int ((n2 - n1) * pages)
    in
    let rows =
      [
        ("native", native false, native true);
        ("nested (4 KiB host frames)", virt Vm.Nested_paging false, virt Vm.Nested_paging true);
        ("shadow (splintered)", virt Vm.Shadow_paging false, virt Vm.Shadow_paging true);
      ]
    in
    List.iter
      (fun (name, small, large) ->
        Tablefmt.add_row t
          [ name; Tablefmt.cell_f small; Tablefmt.cell_f large;
            Tablefmt.cell_f ~decimals:2 (small /. large) ])
      rows;
    Tablefmt.print t;
    Printf.printf
      "Expected shape: native gets the full TLB-reach win (2 entries cover the\n\
       walk); nested keeps paying per-4KiB-miss because 4 KiB host frames splinter\n\
       the guest superpage — large pages must be large in BOTH dimensions; shadow\n\
       splinters too but its shorter 1-D refill softens the penalty.\n"
  end

(* ------------------------------------------------------------------ *)
(* E16 — fault injection: migration and replication on a lossy link    *)
(* ------------------------------------------------------------------ *)

(* Every number below is a simulated-cycle count or a counter driven by a
   dedicated splitmix64 fault stream (seed 42), so two runs of E16 must
   produce a byte-identical BENCH_fault.json — scripts/ci.sh asserts
   exactly that.  The state-match column is the end-to-end correctness
   check: a guest migrated over a lossy link, run to completion, must
   retire the same instruction count and print the same output as the
   fault-free baseline. *)

let e16 () =
  if section "E16" "Fault injection: migration and replication on a lossy link" then begin
    (* a link on the seed-42 fault stream: lossy, or dead from cycle [lo] *)
    let lossy_link spec =
      let link = Link.create () in
      let f = Fault.create ~seed:42L () in
      (match spec with
      | `Drop p -> Fault.set_prob f Fault.Drop p
      | `Partition lo -> Fault.add_window f Fault.Partition ~lo ~hi:Int64.max_int);
      Link.set_faults link f;
      link
    in
    (* --- pre-copy migration vs frame loss rate ----------------------- *)
    let mig_case spec =
      let setup =
        Images.plan ~heap_pages:128
          ~user:(Workloads.memwalk ~pages:96 ~iters:5000 ~write:true) ()
      in
      let src, vm = Images.boot ~name:"mig" setup in
      let dst = Images.hypervisor setup in
      let host_b = Hypervisor.host dst in
      ignore (Hypervisor.run src ~budget:3_000_000L);
      let link = lossy_link spec in
      let dst_used_before = Frame_alloc.used_count host_b.Host.alloc in
      let survivor, r =
        Migrate.precopy ~src ~dst ~vm ~link ~max_rounds:12 ~stop_threshold:8 ()
      in
      let reclaimed =
        (not r.Migrate.aborted)
        || Frame_alloc.used_count host_b.Host.alloc = dst_used_before
      in
      (* run the surviving copy to completion; a migrated (or rolled-back)
         guest must finish with exactly the baseline's output and retired
         instruction count, wherever the handoff happened *)
      let hyp = if r.Migrate.aborted then src else dst in
      run_to_halt ~budget:20_000_000_000L hyp "E16: migrated guest";
      let output =
        if r.Migrate.aborted then Vm.console_output survivor
        else Vm.console_output vm ^ Vm.console_output survivor
      in
      (r, output, Vm.instret survivor, reclaimed)
    in
    let rates = scale [ 0.0; 0.01; 0.05; 0.10 ] [ 0.0; 0.05 ] in
    let t =
      Tablefmt.create
        [ ("loss", Tablefmt.Right); ("total kcyc", Tablefmt.Right);
          ("downtime kcyc", Tablefmt.Right); ("pages", Tablefmt.Right);
          ("rounds", Tablefmt.Right); ("retransmits", Tablefmt.Right);
          ("aborted", Tablefmt.Left); ("state match", Tablefmt.Left) ]
    in
    let base = mig_case (`Drop 0.0) in
    let _, base_out, base_instret, _ = base in
    let mig_rows =
      List.map
        (fun p ->
          let r, out, instret, reclaimed =
            if p = 0.0 then base else mig_case (`Drop p)
          in
          let state_match = out = base_out && instret = base_instret in
          Tablefmt.add_row t
            [ Printf.sprintf "%.0f%%" (p *. 100.0);
              Tablefmt.cell_f ~decimals:1
                (Int64.to_float r.Migrate.total_cycles /. 1000.0);
              Tablefmt.cell_f ~decimals:1
                (Int64.to_float r.Migrate.downtime_cycles /. 1000.0);
              Tablefmt.cell_i r.Migrate.pages_sent;
              string_of_int r.Migrate.rounds;
              Tablefmt.cell_i r.Migrate.retransmits;
              (if r.Migrate.aborted then "yes" else "no");
              (if state_match then "yes" else "NO") ];
          if p > 0.0 && r.Migrate.retransmits = 0 then
            failwith "E16: lossy migration saw no retransmits";
          if not state_match then failwith "E16: migrated state diverged";
          if not reclaimed then failwith "E16: destination frames not reclaimed";
          (Printf.sprintf "drop-%.0f%%" (p *. 100.0), p, r, state_match, reclaimed))
        rates
    in
    (* total partition: retries exhaust, migration rolls back, the source
       resumes and still finishes identically; destination frames are
       reclaimed *)
    let ab_r, ab_out, ab_instret, ab_reclaimed = mig_case (`Partition 0L) in
    let ab_match = ab_out = base_out && ab_instret = base_instret in
    Tablefmt.add_row t
      [ "dead"; Tablefmt.cell_f ~decimals:1
          (Int64.to_float ab_r.Migrate.total_cycles /. 1000.0);
        "-"; Tablefmt.cell_i ab_r.Migrate.pages_sent;
        string_of_int ab_r.Migrate.rounds; Tablefmt.cell_i ab_r.Migrate.retransmits;
        (if ab_r.Migrate.aborted then "yes" else "no");
        (if ab_match && ab_reclaimed then "yes" else "NO") ];
    if not ab_r.Migrate.aborted then failwith "E16: dead link did not abort";
    if not (ab_match && ab_reclaimed) then
      failwith "E16: rollback left stale state";
    Tablefmt.print t;
    let mig_rows =
      mig_rows @ [ ("partition", 1.0, ab_r, ab_match, ab_reclaimed) ]
    in
    (* --- checkpoint replication under the same fault plans ------------ *)
    let rep_case spec =
      let setup =
        Images.plan ~heap_pages:64 ~user:(Workloads.dirty_loop ~pages:48 ~delay:500) ()
      in
      let primary, vm = Images.boot ~name:"ha" setup in
      let backup = Images.hypervisor setup in
      ignore (Hypervisor.run primary ~budget:2_000_000L);
      let link = lossy_link spec in
      let twin, st =
        Replicate.protect ~primary ~backup ~vm ~link ~epoch_cycles:200_000L
          ~epochs:6 ()
      in
      (* the backup must be runnable at the last completed checkpoint *)
      let before = Vm.instret twin in
      ignore (Hypervisor.run backup ~budget:100_000L);
      if Vm.instret twin <= before then
        failwith "E16: failed-over backup did not execute";
      st
    in
    let t2 =
      Tablefmt.create
        [ ("fault plan", Tablefmt.Left); ("epochs done", Tablefmt.Right);
          ("retransmits", Tablefmt.Right); ("link failed", Tablefmt.Left) ]
    in
    let rep_specs =
      scale
        [ ("drop-0%", `Drop 0.0); ("drop-2%", `Drop 0.02);
          ("dead@3M", `Partition 3_000_000L) ]
        [ ("drop-2%", `Drop 0.02); ("dead@3M", `Partition 3_000_000L) ]
    in
    let rep_rows =
      List.map
        (fun (name, spec) ->
          let st = rep_case spec in
          Tablefmt.add_row t2
            [ name; string_of_int st.Replicate.epochs_completed;
              Tablefmt.cell_i st.Replicate.retransmits;
              (if st.Replicate.link_failed then "yes" else "no") ];
          (name, st))
        rep_specs
    in
    Tablefmt.print t2;
    write_json "BENCH_fault.json"
      (List.map
         (fun (name, loss, (r : Migrate.result), state_match, reclaimed) ->
           Printf.sprintf
             "    {\"name\": \"fault/migrate/%s\", \"loss\": %.2f, \"total_cycles\": \
              %Ld, \"downtime_cycles\": %Ld, \"pages\": %d, \"rounds\": %d, \
              \"retransmits\": %d, \"aborted\": %b, \"state_match\": %b, \
              \"frames_reclaimed\": %b}"
             name loss r.Migrate.total_cycles r.Migrate.downtime_cycles
             r.Migrate.pages_sent r.Migrate.rounds r.Migrate.retransmits
             r.Migrate.aborted state_match reclaimed)
         mig_rows
      @ List.map
          (fun (name, (st : Replicate.stats)) ->
            Printf.sprintf
              "    {\"name\": \"fault/replicate/%s\", \"epochs_completed\": %d, \
               \"retransmits\": %d, \"link_failed\": %b, \"paused_cycles\": %Ld}"
              name st.Replicate.epochs_completed st.Replicate.retransmits
              st.Replicate.link_failed st.Replicate.paused_cycles)
          rep_rows);
    Printf.printf
      "\nExpected shape: retransmits grow with the loss rate while the migrated\n\
       guest stays bit-identical to the fault-free baseline; a dead link aborts\n\
       after bounded retries, the source resumes, and the destination frames are\n\
       reclaimed.  Replication commits fewer epochs once the link dies, and the\n\
       backup resumes from the last completed checkpoint.  Written to\n\
       BENCH_fault.json (byte-identical across same-seed runs).\n"
  end

(* ------------------------------------------------------------------ *)
(* E17 — high availability: crash recovery, restart MTTR, failover     *)
(* ------------------------------------------------------------------ *)

(* Three layers of the HA stack, each with its own invariant asserted
   inline: (1) the durable store recovers a complete previous image from
   a power failure at EVERY swept byte offset of a commit, and the image
   restores to a VM that finishes in lockstep with an uncrashed run;
   (2) the per-VM supervisor restarts a wedged guest from its last good
   checkpoint, so MTTR and the checkpoint pause tax are measured against
   the same instruction count as a fault-free run; (3) heartbeat-driven
   failover activates the backup twin automatically under heartbeat loss
   or primary death.  Every number is simulated cycles under seeded
   fault streams — BENCH_ha.json must be byte-identical across runs. *)

let e17 () =
  if section "E17" "High availability: crash recovery, restart MTTR, failover" then begin
    let module Asm = Velum_isa.Asm in
    let unikernel hyp name prog =
      let vm = Hypervisor.create_vm hyp ~name ~mem_frames:16 ~entry:0L () in
      Vm.load_image vm (Asm.assemble ~origin:0L prog);
      vm
    in
    let spin_n_then_halt n =
      Asm.
        [ li r2 (Int64.of_int n); label "spin"; addi r2 r2 (-1L);
          bne r2 r0 "spin"; halt ]
    in
    (* --- (1) power-failure sweep over every commit region ------------- *)
    let sweep_stride = scale 499 4999 in
    let mk_snapshots () =
      let hyp = Hypervisor.create ~host:(Host.create ~frames:2048 ()) () in
      let vm = unikernel hyp "crash" (spin_n_then_halt 2_000_000) in
      ignore (Hypervisor.run hyp ~budget:1_500_000L);
      let img1 = Snapshot.capture vm in
      ignore (Hypervisor.run hyp ~budget:1_500_000L);
      let img2 = Snapshot.capture vm in
      (img1, img2)
    in
    let img1, img2 = mk_snapshots () in
    let reference_finish image =
      let hyp = Hypervisor.create ~host:(Host.create ~frames:2048 ()) () in
      let vm = Snapshot.restore hyp image in
      run_to_halt ~budget:20_000_000_000L hyp "E17: restored reference";
      Vm.instret vm
    in
    let expect_finish = reference_finish img1 in
    let sectors = Store.sectors_for ~image_bytes:(Bytes.length img2) in
    (* every cut must tear and still recover generation [gen] as [img];
       the baseline is prepared once and byte-cloned per offset *)
    let cut_sweep base cut ~gen ~img =
      let total =
        match cut with
        | Store.Cut_commit src -> Store.commit_bytes base src
        | Store.Cut_gc -> Store.gc_bytes base
      in
      let offsets = ref 0 and prev = ref 0 and bad = ref 0 in
      let off = ref 0 in
      while !off < total do
        let p = Store.crash_probe base cut ~at:!off in
        if not p.Store.torn then incr bad;
        (match p.Store.recovered with
        | Some (r, g) when g = gen && Bytes.equal r img -> incr prev
        | _ -> incr bad);
        incr offsets;
        off := !off + sweep_stride
      done;
      (!offsets, !prev, !bad, total)
    in
    (* delta-commit sweep: the previous generation survives every cut *)
    let sweep () =
      let base = Store.create ~sectors () in
      (match Store.commit base (Store.of_bytes img1) with
      | Store.Committed { gen = 1; _ } -> ()
      | _ -> failwith "E17: baseline commit failed");
      let offsets, prev, bad, total =
        cut_sweep base (Store.Cut_commit (Store.of_bytes img2)) ~gen:1 ~img:img1
      in
      (* a torn-then-recovered image must still boot and run to lockstep *)
      let bad = if reference_finish img1 <> expect_finish then bad + 1 else bad in
      (offsets, prev, bad, total)
    in
    (* GC-compaction sweep: two live generations, cut the compaction —
       the newest one must survive every offset *)
    let gc_sweep () =
      let base = Store.create ~sectors () in
      (match Store.commit base (Store.of_bytes img1) with
      | Store.Committed { gen = 1; _ } -> ()
      | _ -> failwith "E17: gc baseline commit failed");
      (match Store.commit base (Store.of_bytes img2) with
      | Store.Committed { gen = 2; _ } -> ()
      | _ -> failwith "E17: gc second commit failed");
      cut_sweep base Store.Cut_gc ~gen:2 ~img:img2
    in
    let offsets, prev, bad, commit_total = sweep () in
    let gc_offsets, gc_prev, gc_bad, gc_total = gc_sweep () in
    let t =
      Tablefmt.create
        [ ("stream", Tablefmt.Left); ("bytes", Tablefmt.Right);
          ("offsets swept", Tablefmt.Right);
          ("recover newest complete", Tablefmt.Right);
          ("torn/hybrid", Tablefmt.Right); ("restored lockstep", Tablefmt.Left) ]
    in
    Tablefmt.add_row t
      [ "delta commit"; Tablefmt.cell_i commit_total; Tablefmt.cell_i offsets;
        Tablefmt.cell_i prev; Tablefmt.cell_i bad;
        (if bad = 0 then "yes" else "NO") ];
    Tablefmt.add_row t
      [ "gc compaction"; Tablefmt.cell_i gc_total; Tablefmt.cell_i gc_offsets;
        Tablefmt.cell_i gc_prev; Tablefmt.cell_i gc_bad; "-" ];
    Tablefmt.print t;
    if bad > 0 then failwith "E17: power-failure sweep recovered a torn image";
    if gc_bad > 0 then failwith "E17: GC sweep lost or tore the newest generation";
    (* --- (2) supervisor restart: MTTR and checkpoint tax --------------- *)
    let work = 1_200_000 in
    let reference =
      let hyp = Hypervisor.create ~host:(Host.create ~frames:2048 ()) () in
      let vm = unikernel hyp "ref" (spin_n_then_halt work) in
      run_to_halt hyp "E17: reference run";
      Vm.instret vm
    in
    let supervise cadence =
      let hyp = Hypervisor.create ~host:(Host.create ~frames:2048 ()) () in
      let vm = unikernel hyp "work" (spin_n_then_halt work) in
      let store =
        Store.create
          ~sectors:(Store.sectors_for ~image_bytes:(Snapshot.image_bytes vm))
          ()
      in
      let sup =
        Ha.create ~hyp ~store ~vm ~checkpoint_every:cadence ~wd_budget:50_000L
          ~backoff_base:100_000L ()
      in
      ignore (Ha.run sup ~budget:2_000_000L);
      Ha.inject_stall (Ha.vm sup);
      (match Ha.run sup ~budget:200_000_000L with
      | Hypervisor.All_halted -> ()
      | _ -> failwith "E17: supervised guest did not finish");
      if Vm.instret (Ha.vm sup) <> reference then
        failwith "E17: supervised run diverged from the fault-free reference";
      let s = Ha.stats sup in
      let elapsed = Hypervisor.now hyp in
      let availability =
        1.0 -. (Int64.to_float s.Ha.mttr_total /. Int64.to_float elapsed)
      in
      let overhead =
        Int64.to_float s.Ha.checkpoint_cycles /. Int64.to_float elapsed
      in
      (s, elapsed, availability, overhead)
    in
    let cadences = scale [ 100_000L; 300_000L; 600_000L ] [ 300_000L ] in
    let t2 =
      Tablefmt.create
        [ ("cadence kcyc", Tablefmt.Right); ("checkpoints", Tablefmt.Right);
          ("ckpt tax %", Tablefmt.Right); ("ckpt KiB", Tablefmt.Right);
          ("dedup", Tablefmt.Right); ("restarts", Tablefmt.Right);
          ("MTTR kcyc", Tablefmt.Right); ("availability %", Tablefmt.Right) ]
    in
    let sup_rows =
      List.map
        (fun cadence ->
          let s, elapsed, avail, overhead = supervise cadence in
          let mttr =
            if s.Ha.mttr_events = 0 then 0L
            else Int64.div s.Ha.mttr_total (Int64.of_int s.Ha.mttr_events)
          in
          let dedup =
            if s.Ha.ckpt_bytes = 0 then 1.0
            else
              float_of_int s.Ha.ckpt_logical_bytes
              /. float_of_int s.Ha.ckpt_bytes
          in
          Tablefmt.add_row t2
            [ Tablefmt.cell_f ~decimals:0 (Int64.to_float cadence /. 1000.0);
              string_of_int s.Ha.checkpoints;
              Tablefmt.cell_f ~decimals:2 (overhead *. 100.0);
              Tablefmt.cell_f ~decimals:0
                (float_of_int s.Ha.ckpt_bytes /. 1024.0);
              Tablefmt.cell_f ~decimals:1 dedup;
              string_of_int s.Ha.restarts;
              Tablefmt.cell_f ~decimals:1 (Int64.to_float mttr /. 1000.0);
              Tablefmt.cell_f ~decimals:3 (avail *. 100.0) ];
          if s.Ha.restarts <> 1 then failwith "E17: expected exactly one restart";
          (cadence, s, elapsed, avail, overhead, mttr, dedup))
        cadences
    in
    Tablefmt.print t2;
    (* --- (3) heartbeat failover: loss-rate sweep + host death ---------- *)
    let failover_case name spec =
      let setup =
        Images.plan ~heap_pages:32
          ~user:(Workloads.dirty_loop ~pages:16 ~delay:50) ()
      in
      let host_frames = setup.Images.frames + 512 in
      let primary, vm = Images.boot ~host_frames ~name setup in
      let backup = Images.hypervisor ~host_frames setup in
      ignore (Hypervisor.run primary ~budget:1_000_000L);
      let link = Link.create () in
      let faults =
        match spec with
        | `Loss p when p > 0.0 ->
            let f = Fault.create ~seed:42L () in
            Fault.set_prob f Fault.Hb_loss p;
            Some f
        | _ -> None
      in
      let primary_dies_at =
        match spec with `Dies at -> Some at | `Loss _ -> None
      in
      let fo =
        Ha.Failover.create ?faults ~primary ~backup ~vm ~link ?primary_dies_at ()
      in
      let epochs = 20 in
      let _survivor, s = Ha.Failover.run fo ~epoch_cycles:150_000L ~epochs in
      let served =
        (* epochs where at least one instance ran the guest; split-brain
           epochs ran both and must not count twice *)
        s.Ha.Failover.primary_epochs + s.Ha.Failover.backup_epochs
        - s.Ha.Failover.split_brain_epochs
      in
      (s, float_of_int served /. float_of_int epochs)
    in
    let fo_specs =
      scale
        [ ("loss-0%", `Loss 0.0); ("loss-10%", `Loss 0.1);
          ("loss-30%", `Loss 0.3); ("loss-100%", `Loss 1.0);
          ("death@1.5M", `Dies 1_500_000L) ]
        [ ("loss-100%", `Loss 1.0); ("death@1.5M", `Dies 1_500_000L) ]
    in
    let t3 =
      Tablefmt.create
        [ ("scenario", Tablefmt.Left); ("gen", Tablefmt.Right);
          ("hb sent/lost/seen", Tablefmt.Right); ("failover", Tablefmt.Left);
          ("MTTR kcyc", Tablefmt.Right); ("split-brain", Tablefmt.Right);
          ("fenced", Tablefmt.Left); ("availability %", Tablefmt.Right) ]
    in
    let fo_rows =
      List.map
        (fun (name, spec) ->
          let s, avail = failover_case name spec in
          let open Ha.Failover in
          Tablefmt.add_row t3
            [ name; string_of_int s.generation;
              Printf.sprintf "%d/%d/%d" s.hb_sent s.hb_lost s.hb_seen;
              (match s.failover_at with
              | Some at -> Printf.sprintf "@%.0fk" (Int64.to_float at /. 1000.0)
              | None -> "no");
              (match s.mttr with
              | Some m -> Tablefmt.cell_f ~decimals:1 (Int64.to_float m /. 1000.0)
              | None -> "-");
              string_of_int s.split_brain_epochs;
              (if s.fenced then "yes" else "no");
              Tablefmt.cell_f ~decimals:1 (avail *. 100.0) ];
          (match spec with
          | `Loss p when p >= 1.0 ->
              if s.failover_at = None || not s.fenced then
                failwith "E17: total heartbeat loss must fail over and fence"
          | `Dies _ ->
              if s.failover_at = None then
                failwith "E17: primary death must fail over"
          | `Loss 0.0 ->
              if s.failover_at <> None then
                failwith "E17: healthy run must not fail over"
          | `Loss _ -> ());
          (name, s, avail))
        fo_specs
    in
    Tablefmt.print t3;
    write_json "BENCH_ha.json"
      ([ Printf.sprintf
           "    {\"name\": \"ha/crash_sweep\", \"commit_bytes\": %d, \"offsets\": %d, \
            \"recover_previous\": %d, \"failures\": %d}"
           commit_total offsets prev bad;
         Printf.sprintf
           "    {\"name\": \"ha/crash_sweep_gc\", \"gc_bytes\": %d, \"offsets\": %d, \
            \"recover_newest\": %d, \"failures\": %d}"
           gc_total gc_offsets gc_prev gc_bad ]
      @ List.map
          (fun (cadence, (s : Ha.stats), elapsed, avail, overhead, mttr, dedup) ->
            Printf.sprintf
              "    {\"name\": \"ha/supervisor/cadence_%Ld\", \"checkpoints\": %d, \
               \"torn\": %d, \"checkpoint_cycles\": %Ld, \"bytes_written\": %d, \
               \"logical_bytes\": %d, \"dedup_ratio\": %.3f, \"frames_churned\": \
               %d, \"restarts\": %d, \"mttr_cycles\": %Ld, \"elapsed_cycles\": \
               %Ld, \"availability\": %.6f, \"checkpoint_overhead\": %.6f}"
              cadence s.Ha.checkpoints s.Ha.torn_checkpoints s.Ha.checkpoint_cycles
              s.Ha.ckpt_bytes s.Ha.ckpt_logical_bytes dedup s.Ha.frames_churned
              s.Ha.restarts mttr elapsed avail overhead)
          sup_rows
      @ List.map
          (fun (name, (s : Ha.Failover.stats), avail) ->
            let open Ha.Failover in
            Printf.sprintf
              "    {\"name\": \"ha/failover/%s\", \"generation\": %d, \"hb_sent\": \
               %d, \"hb_lost\": %d, \"hb_seen\": %d, \"failover_at\": %s, \
               \"mttr_cycles\": %s, \"split_brain_epochs\": %d, \"fenced\": %b, \
               \"availability\": %.6f}"
              name s.generation s.hb_sent s.hb_lost s.hb_seen
              (match s.failover_at with Some v -> Int64.to_string v | None -> "null")
              (match s.mttr with Some v -> Int64.to_string v | None -> "null")
              s.split_brain_epochs s.fenced avail)
          fo_rows);
    Printf.printf
      "\nExpected shape: every swept power-failure offset — of a delta commit\n\
       AND of a GC compaction — recovers the newest complete generation (the\n\
       superblock flip is the commit point; the pre-GC space is never\n\
       written) and the recovered image restores to a lockstep-identical\n\
       guest.  Checkpoints are content-addressed deltas, so the pause tax\n\
       tracks churn (see the dedup column), not the image footprint.  A\n\
       shorter checkpoint cadence buys a smaller restart MTTR at a higher\n\
       pause tax.\n\
       Heartbeat loss below the miss limit never fails over; total loss fails\n\
       over in ~miss_limit epochs and generation-fences the stale primary;\n\
       host death recovers without fencing (nobody is left to fence).  Written\n\
       to BENCH_ha.json (byte-identical across same-seed runs).\n"
  end

(* ------------------------------------------------------------------ *)
(* ENGINE — execution engines: interp vs block wall clock              *)
(* ------------------------------------------------------------------ *)

(* E18: tracing overhead and determinism.  Recording is host-side
   observation only, so a traced run must execute exactly the same
   simulated cycles and exits as an untraced one (asserted per
   workload), and two traced runs of the same seeded workload must
   export byte-identical JSONL (asserted).  What tracing does cost is
   host wall clock, measured here and written to BENCH_trace.json. *)

let e18 () =
  if section "E18" "Tracing overhead: off vs on (identical simulated cycles)" then begin
    let cases =
      [
        ( "cpu-spin",
          Images.plan ~user:(Workloads.cpu_spin ~iters:(scale 1_000_000L 100_000L)) () );
        ( "syscalls",
          Images.plan ~user:(Workloads.syscall_loop ~count:(scale 4_000L 400L)) () );
        ( "memwalk",
          Images.plan ~heap_pages:64
            ~user:(Workloads.memwalk ~pages:64 ~iters:(scale 16 4) ~write:true)
            () );
      ]
    in
    let run_once ~traced setup =
      let trace = if traced then Some (Trace.create ()) else None in
      let t0 = Sys.time () in
      let vm, cycles = run_vm ?trace setup in
      let dt = Sys.time () -. t0 in
      (dt, cycles, Monitor.total_exits vm.Vm.monitor, trace)
    in
    let t =
      Tablefmt.create
        [ ("workload", Tablefmt.Left); ("sim cycles", Tablefmt.Right);
          ("exits", Tablefmt.Right); ("events", Tablefmt.Right);
          ("off s", Tablefmt.Right); ("on s", Tablefmt.Right);
          ("overhead %", Tablefmt.Right) ]
    in
    let results =
      List.map
        (fun (name, setup) ->
          let reps = if !quick then 1 else 3 in
          let best_off = ref infinity and best_on = ref infinity in
          let c_off = ref 0L and x_off = ref 0 in
          let c_on = ref 0L and x_on = ref 0 in
          let events = ref 0 in
          let export = ref None in
          for _ = 1 to reps do
            let dt, c, x, _ = run_once ~traced:false setup in
            if dt < !best_off then best_off := dt;
            c_off := c;
            x_off := x
          done;
          (* at least two traced runs so the byte-identical assert bites
             even in --quick mode *)
          for _ = 1 to max 2 reps do
            let dt, c, x, tr = run_once ~traced:true setup in
            if dt < !best_on then best_on := dt;
            c_on := c;
            x_on := x;
            let tr = Option.get tr in
            events := Trace.events_recorded tr;
            let e = Trace.export_string tr in
            match !export with
            | None -> export := Some e
            | Some prev ->
                if not (String.equal prev e) then
                  failwith
                    (Printf.sprintf "E18 %s: trace export not byte-identical" name)
          done;
          if !c_off <> !c_on then
            failwith
              (Printf.sprintf
                 "E18 %s: tracing changed simulated cycles (off %Ld, on %Ld)" name
                 !c_off !c_on);
          if !x_off <> !x_on then
            failwith
              (Printf.sprintf "E18 %s: tracing changed exit count (off %d, on %d)"
                 name !x_off !x_on);
          let overhead = ((!best_on /. !best_off) -. 1.0) *. 100.0 in
          Tablefmt.add_row t
            [ name; Int64.to_string !c_off; string_of_int !x_off;
              string_of_int !events; Tablefmt.cell_f ~decimals:3 !best_off;
              Tablefmt.cell_f ~decimals:3 !best_on;
              Tablefmt.cell_f ~decimals:1 overhead ];
          (name, !c_off, !x_off, !events, !best_off, !best_on, overhead))
        cases
    in
    Tablefmt.print t;
    write_json "BENCH_trace.json"
      (List.map
         (fun (name, cycles, exits, events, off_s, on_s, overhead) ->
           Printf.sprintf
             "    {\"name\": \"trace/%s\", \"sim_cycles\": %Ld, \"sim_cycles_added\": 0, \
              \"exits\": %d, \"events\": %d, \"off_s\": %.6f, \"on_s\": %.6f, \
              \"wall_overhead_pct\": %.2f}"
             name cycles exits events off_s on_s overhead)
         results);
    Printf.printf
      "\nSimulated cycles and exit counts are identical with tracing on or off\n\
       (asserted above, 'sim_cycles_added: 0'), and two traced runs export\n\
       byte-identical JSONL.  The overhead column is host wall clock only.\n\
       Written to BENCH_trace.json.\n"
  end

(* E19: parallel hosts on OCaml domains.  The round-barrier runner must
   produce a byte-identical fleet report (cycles, exits, monitor
   counters, migration accounting) and byte-identical per-host trace
   exports at every domain count — asserted here at 1, 2 and 4 domains.
   Wall-clock speedup is measured and reported with a soft scaling
   target: it can only materialise when the machine actually has
   cores to spare, so the target is informational, never a failure. *)

let e19 () =
  if section "E19" "Parallel hosts: domain-count invariance and scaling" then begin
    let module P = Velum_cluster.Parallel in
    let hosts = 4 in
    let rounds = if !quick then 4 else 8 in
    let quantum = if !quick then 150_000L else 400_000L in
    (* dirty_loop never halts, so every host runs its full quantum every
       round — the work is identical whatever the domain count *)
    let setup =
      Images.plan ~heap_pages:24 ~user:(Workloads.dirty_loop ~pages:16 ~delay:800) ()
    in
    let cfg =
      P.config ~quantum ~rounds ~seed:11L ~trace:true ~hosts
        ~mk_vms:(fun i -> [ P.spec ~name:(Printf.sprintf "vm%d" i) setup ])
        ()
    in
    let reps = if !quick then 1 else 3 in
    let measure domains =
      let best = ref infinity in
      let report = ref "" in
      let traces = ref [] in
      for _ = 1 to reps do
        let t0 = Unix.gettimeofday () in
        let r = P.run ~domains cfg in
        let dt = Unix.gettimeofday () -. t0 in
        if dt < !best then best := dt;
        report := r.P.report;
        traces := P.traces r.P.fleet
      done;
      (!best, !report, !traces)
    in
    let domain_counts = [ 1; 2; 4 ] in
    let results = List.map (fun d -> (d, measure d)) domain_counts in
    let _, (wall1, ref_report, ref_traces) = List.hd results in
    List.iter
      (fun (d, (_, report, traces)) ->
        if not (String.equal report ref_report) then
          failwith
            (Printf.sprintf "E19: fleet report diverged at %d domains" d);
        if traces <> ref_traces then
          failwith
            (Printf.sprintf "E19: trace exports diverged at %d domains" d))
      results;
    let cores = Domain.recommended_domain_count () in
    let t =
      Tablefmt.create
        [ ("domains", Tablefmt.Right); ("wall s", Tablefmt.Right);
          ("speedup", Tablefmt.Right); ("report", Tablefmt.Left) ]
    in
    List.iter
      (fun (d, (wall, _, _)) ->
        Tablefmt.add_row t
          [ string_of_int d; Tablefmt.cell_f ~decimals:3 wall;
            Tablefmt.cell_f ~decimals:2 (wall1 /. wall); "byte-identical" ])
      results;
    Tablefmt.print t;
    write_json "BENCH_par.json"
      ~header:
        (Printf.sprintf "  \"cores\": %d, \"hosts\": %d, \"rounds\": %d, \"quantum\": %Ld,\n"
           cores hosts rounds quantum)
      (List.map
         (fun (d, (wall, _, _)) ->
           Printf.sprintf
             "    {\"name\": \"par/domains-%d\", \"wall_s\": %.6f, \"speedup\": \
              %.3f, \"byte_identical\": true}"
             d wall (wall1 /. wall))
         results);
    Printf.printf
      "\nThe fleet report and every per-host trace export are byte-identical\n\
       at 1, 2 and 4 domains (asserted above) — parallelism changes wall\n\
       clock only.  Soft scaling target: >= 1.3x at 2 domains on a machine\n\
       with 2+ cores (this machine reports %d core%s, so %s).\n\
       Written to BENCH_par.json.\n"
      cores
      (if cores = 1 then "" else "s")
      (if cores >= 2 then "the target applies"
       else "speedup cannot materialise here and the numbers are informational")
  end

(* ------------------------------------------------------------------ *)

(* E20: the self-healing control plane under scripted chaos — two host
   kills, one rolling drain, an overload burst, plus probabilistic
   heartbeat loss and evacuation/drain faults.  Every metric is
   simulated and the whole scenario is fixed (no --quick scaling): the
   emitted BENCH_cluster.json is byte-identical run-to-run and across
   domain counts, and is committed so CI can literally diff it. *)

let e20 () =
  if section "E20" "Cluster control plane: chaos, evacuation, drain, shedding" then begin
    let module C = Velum_cluster.Control in
    let hosts = 16 in
    let rounds = 24 in
    let quantum = 50_000L in
    let faults =
      match
        Fault.parse "seed=7,cluster.hb=0.05,cluster.evac=0.1,cluster.drain=0.1,drop=0.02"
      with
      | Ok f -> f
      | Error e -> failwith e
    in
    let cfg =
      C.chaos ~quantum ~rounds ~seed:11L ~faults ~checkpoint_every:4
        ~kills:[ (5, 1); (8, 9) ]
        ~drains:[ (12, 3) ]
        ~burst:6 ~hosts ()
    in
    let domain_counts = [ 1; 2; 4 ] in
    let results = List.map (fun d -> (d, C.run ~domains:d cfg)) domain_counts in
    let _, ref_res = List.hd results in
    List.iter
      (fun (d, r) ->
        if not (String.equal r.C.report ref_res.C.report) then
          failwith (Printf.sprintf "E20: control-plane report diverged at %d domains" d))
      results;
    let m = C.metrics ref_res.C.control in
    if m.C.availability < 0.95 then
      failwith
        (Printf.sprintf "E20: fleet availability %.4f below the 0.95 gate"
           m.C.availability);
    if m.C.split_brain <> 0 then failwith "E20: split-brain epoch observed";
    let t =
      Tablefmt.create [ ("metric", Tablefmt.Left); ("value", Tablefmt.Right) ]
    in
    List.iter
      (fun (k, v) -> Tablefmt.add_row t [ k; v ])
      [
        ("fleet availability", Printf.sprintf "%.4f" m.C.availability);
        ("SLO violations (VM-rounds)", string_of_int m.C.slo_violations);
        ("migration bytes", string_of_int m.C.migration_bytes);
        ("evacuation MTTR (rounds)", Printf.sprintf "%.2f" m.C.evac_mttr_rounds);
        ("consolidation (VMs/host)", Printf.sprintf "%.2f" m.C.consolidation);
        ("placed / shed / degraded",
         Printf.sprintf "%d / %d / %d" m.C.placed m.C.shed m.C.degraded);
        ("evacuated (checkpoint restores)", string_of_int m.C.evacuated);
        ("drain cold moves", string_of_int m.C.cold_moves);
        ("fenced while alive", string_of_int m.C.fenced_alive);
        ("split-brain epochs", string_of_int m.C.split_brain);
      ];
    Tablefmt.print t;
    let oc = open_out "BENCH_cluster.json" in
    Printf.fprintf oc
      "{\n\
      \  \"hosts\": %d, \"vms\": %d, \"rounds\": %d, \"quantum\": %Ld,\n\
      \  \"chaos\": \"2 kills + 1 drain + 6-VM burst + \
       hb/evac/drain/drop faults\",\n\
      \  \"byte_identical_domains\": [1, 2, 4],\n\
      \  \"benchmarks\": [\n\
      \    {\"name\": \"cluster/availability\", \"value\": %.4f},\n\
      \    {\"name\": \"cluster/slo_violations\", \"value\": %d},\n\
      \    {\"name\": \"cluster/migration_bytes\", \"value\": %d},\n\
      \    {\"name\": \"cluster/evac_mttr_rounds\", \"value\": %.2f},\n\
      \    {\"name\": \"cluster/consolidation\", \"value\": %.2f},\n\
      \    {\"name\": \"cluster/placed\", \"value\": %d},\n\
      \    {\"name\": \"cluster/shed\", \"value\": %d},\n\
      \    {\"name\": \"cluster/degraded\", \"value\": %d},\n\
      \    {\"name\": \"cluster/evacuated\", \"value\": %d},\n\
      \    {\"name\": \"cluster/cold_moves\", \"value\": %d},\n\
      \    {\"name\": \"cluster/fenced_alive\", \"value\": %d},\n\
      \    {\"name\": \"cluster/split_brain\", \"value\": %d}\n\
      \  ]\n\
       }\n"
      hosts (List.length cfg.C.workload) rounds quantum m.C.availability m.C.slo_violations
      m.C.migration_bytes m.C.evac_mttr_rounds m.C.consolidation m.C.placed m.C.shed
      m.C.degraded m.C.evacuated m.C.cold_moves m.C.fenced_alive m.C.split_brain;
    close_out oc;
    Printf.printf
      "\nThe control-plane report (placements, evacuations, drain progress,\n\
       shed/degrade events, per-host traces) is byte-identical at 1, 2 and 4\n\
       domains (asserted above), availability stayed above the 0.95 gate\n\
       through two host kills, a rolling drain and an overload burst, and no\n\
       split-brain epoch occurred (fencing precedes every restore).  All\n\
       metrics are simulated and deterministic — BENCH_cluster.json is\n\
       committed and diffed literally by CI.\n"
  end

(* ------------------------------------------------------------------ *)

(* E22: the content-addressed checkpoint store itself — what a commit
   costs as a function of churn, what chunk sharing buys across VMs
   committed to the same store, and what a GC compaction reclaims.
   Every number is a deterministic byte count (no wall clock), so
   BENCH_store.json is byte-identical across runs. *)

let e22 () =
  if section "E22" "Incremental store: churn cost, cross-VM dedup, GC reclaim" then begin
    let pages = scale 256 64 in
    let image_bytes = pages * 4096 in
    let fill_page img i tag =
      (* a unique stamp per (page, tag) pair, so distinct pages never
         collide into the same chunk by accident *)
      Bytes.set_int64_le img (i * 4096)
        (Int64.of_int ((i * 65599) + (tag * 2654435761)));
      for j = 8 to 4095 do
        Bytes.unsafe_set img
          ((i * 4096) + j)
          (Char.chr ((((i * 31) + (j * 7) + tag) land 0x7f) + 1))
      done
    in
    let base () =
      let b = Bytes.create image_bytes in
      for i = 0 to pages - 1 do
        fill_page b i 0
      done;
      b
    in
    (* --- (1) commit cost vs churn: one stream, 8 delta commits ------- *)
    let commits_n = 8 in
    let churn_levels = [ 1; 4; 16; pages / 4; pages ] in
    let t1 =
      Tablefmt.create
        [ ("churned pages", Tablefmt.Right); ("bytes/commit", Tablefmt.Right);
          ("pause kcyc", Tablefmt.Right); ("dedup", Tablefmt.Right);
          ("auto-GC runs", Tablefmt.Right) ]
    in
    let churn_rows =
      List.map
        (fun k ->
          let store =
            Store.create ~sectors:(Store.sectors_for ~image_bytes) ()
          in
          let img = base () in
          (match Store.commit store (Store.of_bytes img) with
          | Store.Committed _ -> ()
          | Store.Torn _ -> failwith "E22: baseline commit torn");
          let delta_bytes = ref 0 in
          for n = 1 to commits_n do
            for c = 0 to k - 1 do
              fill_page img (((c * 97) + (n * 13)) mod pages) n
            done;
            match Store.commit store (Store.of_bytes img) with
            | Store.Committed { bytes; _ } -> delta_bytes := !delta_bytes + bytes
            | Store.Torn _ -> failwith "E22: churn commit torn"
          done;
          let per_commit = !delta_bytes / commits_n in
          let dedup =
            float_of_int (Store.logical_bytes store)
            /. float_of_int (Store.bytes_written store)
          in
          Tablefmt.add_row t1
            [ Tablefmt.cell_i k; Tablefmt.cell_i per_commit;
              Tablefmt.cell_f ~decimals:1
                (Int64.to_float (Store.commit_cycles ~bytes:per_commit)
                /. 1000.0);
              Tablefmt.cell_f ~decimals:2 dedup;
              string_of_int (Store.gc_runs store) ];
          (k, per_commit, dedup, Store.gc_runs store))
        churn_levels
    in
    Tablefmt.print t1;
    (* a 1-page delta must cost a small constant over one chunk, not the
       image footprint *)
    (match churn_rows with
    | (1, per_commit, _, _) :: _ ->
        if per_commit > 4 * 4096 then
          failwith "E22: single-page churn commit cost scales with the image"
    | _ -> ());
    (* --- (2) cross-VM sharing: one fleet store, 6 streams ----------- *)
    let streams = 6 in
    let shared =
      Store.create
        ~sectors:(Store.fleet_sectors_for ~streams ~image_bytes)
        ()
    in
    let t2 =
      Tablefmt.create
        [ ("stream", Tablefmt.Left); ("commit bytes", Tablefmt.Right);
          ("chunks new", Tablefmt.Right); ("chunks shared", Tablefmt.Right) ]
    in
    let stream_rows =
      List.init streams (fun s ->
          let img = base () in
          (* each VM diverges on four private pages *)
          for c = 0 to 3 do
            fill_page img (((s * 17) + (c * 53)) mod pages) (100 + s)
          done;
          match Store.commit ~id:(Printf.sprintf "vm%d" s) shared (Store.of_bytes img) with
          | Store.Committed { bytes; chunks_new; chunks_shared; _ } ->
              Tablefmt.add_row t2
                [ Printf.sprintf "vm%d" s; Tablefmt.cell_i bytes;
                  Tablefmt.cell_i chunks_new; Tablefmt.cell_i chunks_shared ];
              (s, bytes, chunks_new, chunks_shared)
          | Store.Torn _ -> failwith "E22: cross-VM commit torn")
    in
    Tablefmt.print t2;
    (match stream_rows with
    | (_, first_bytes, _, _) :: rest ->
        List.iter
          (fun (_, bytes, _, shared_chunks) ->
            if bytes * 4 > first_bytes then
              failwith "E22: sibling VM commit did not share the base image";
            if shared_chunks = 0 then
              failwith "E22: sibling VM commit shared no chunks")
          rest
    | [] -> ());
    (* --- (3) GC compaction: two live generations, compact, measure --- *)
    let store = Store.create ~sectors:(Store.sectors_for ~image_bytes) () in
    let img = base () in
    (match Store.commit store (Store.of_bytes img) with
    | Store.Committed _ -> ()
    | Store.Torn _ -> failwith "E22: gc baseline torn");
    for c = 0 to (pages / 2) - 1 do
      fill_page img (c * 2) 7
    done;
    (match Store.commit store (Store.of_bytes img) with
    | Store.Committed _ -> ()
    | Store.Torn _ -> failwith "E22: gc second commit torn");
    let before = Store.gc_bytes store in
    let gc_bytes, gc_live, gc_reclaimed =
      match Store.gc store with
      | Store.Gc_committed { bytes; live_chunks; reclaimed } ->
          (bytes, live_chunks, reclaimed)
      | Store.Gc_torn _ -> failwith "E22: gc torn without a fault plan"
    in
    let t3 =
      Tablefmt.create
        [ ("gc stream bytes", Tablefmt.Right); ("live chunks", Tablefmt.Right);
          ("reclaimed bytes", Tablefmt.Right); ("recovers", Tablefmt.Left) ]
    in
    let recovers =
      match Store.recover (Store.mount (Store.device store)) with
      | Some (rimg, _) when Bytes.equal rimg img -> "newest"
      | _ -> "BROKEN"
    in
    Tablefmt.add_row t3
      [ Tablefmt.cell_i gc_bytes; Tablefmt.cell_i gc_live;
        Tablefmt.cell_i gc_reclaimed; recovers ];
    Tablefmt.print t3;
    if recovers <> "newest" then
      failwith "E22: compaction lost the newest generation";
    ignore before;
    write_json "BENCH_store.json"
      (List.map
         (fun (k, per_commit, dedup, gcs) ->
           Printf.sprintf
             "    {\"name\": \"store/churn_%d\", \"bytes_per_commit\": %d, \
              \"dedup_ratio\": %.3f, \"auto_gc_runs\": %d}"
             k per_commit dedup gcs)
         churn_rows
      @ List.map
          (fun (s, bytes, chunks_new, chunks_shared) ->
            Printf.sprintf
              "    {\"name\": \"store/stream_vm%d\", \"commit_bytes\": %d, \
               \"chunks_new\": %d, \"chunks_shared\": %d}"
              s bytes chunks_new chunks_shared)
          stream_rows
      @ [ Printf.sprintf
            "    {\"name\": \"store/gc\", \"stream_bytes\": %d, \"live_chunks\": \
             %d, \"reclaimed_bytes\": %d}"
            gc_bytes gc_live gc_reclaimed ]);
    Printf.printf
      "\nExpected shape: a delta commit costs its churned chunks plus fixed\n\
       metadata — a 1-page delta is hundreds of times cheaper than the image\n\
       footprint (asserted), so the checkpoint pause tax tracks churn.  A\n\
       sibling VM committed to the same store shares the whole base image\n\
       and writes only its divergent pages (asserted).  GC copies exactly\n\
       the live chunks into the idle space and reclaims the dead ones, and\n\
       the newest generation survives the flip (asserted).  Written to\n\
       BENCH_store.json (deterministic byte counts, no wall clock).\n"
  end

(* ------------------------------------------------------------------ *)

(* E23: the virtio-net fabric — a load-balancer VM fanning requests out
   to backend VMs over a software switch, under heavy open-loop client
   traffic.  Reply latency (client gettime stamp to switch egress) is
   recorded by a switch snoop, and tails are nearest-rank percentiles
   of those samples; the fleet runs as 4 independent
   host-cells under Parallel, so the run is asserted byte-identical at
   1 and 4 domains, clean and under link faults.  A third scenario
   live-migrates a backend between two hosts mid-benchmark.  Every
   metric is simulated and the scenario is fixed (no --quick scaling):
   BENCH_net.json is committed so CI literally diffs it. *)

let e23 () =
  if section "E23" "Network fabric: LB fan-out, tail latency, faults, live migration"
  then begin
    let module P = Velum_cluster.Parallel in
    let module Fabric = Velum_cluster.Fabric in
    let hosts = 4 in
    let backends = 2 and clients = 2 in
    let requests = 24 and batch = 4 in
    let shape =
      { Fabric.backends; clients; requests; batch; service = 150 }
    in
    (* every scenario runs at 1 and 4 domains; both artifacts must match *)
    let run_checked ?faults ~tag () =
      let run domains =
        try
          Fabric.run ?faults ~domains shape ~hosts ~quantum:400_000L ~rounds:16
            ~seed:23L
        with Failure m -> failwith (Printf.sprintf "E23 %s %s" tag m)
      in
      let r1 = run 1 in
      let r4 = run 4 in
      if not (String.equal r1.Fabric.report r4.Fabric.report) then
        failwith (Printf.sprintf "E23 %s: fleet report diverged at 4 domains" tag);
      if not (String.equal r1.Fabric.digest r4.Fabric.digest) then
        failwith (Printf.sprintf "E23 %s: fabric digest diverged at 4 domains" tag);
      (Fabric.tail r1.Fabric.latencies, r1.Fabric.fleet)
    in
    let tail_clean, totals_clean = run_checked ~tag:"clean" () in
    let faults =
      let f = Fault.create ~seed:23L () in
      Fault.set_prob f Fault.Drop 0.02;
      Fault.set_prob f Fault.Corrupt 0.01;
      Fault.set_prob f Fault.Delay 0.05;
      Fault.set_prob f Fault.Duplicate 0.01;
      f
    in
    let tail_faults, totals_faults = run_checked ~faults ~tag:"faults" () in
    (* sanity gates *)
    let expected_replies = hosts * clients * requests in
    if tail_clean.Fabric.replies <> expected_replies then
      failwith
        (Printf.sprintf "E23 clean: %d replies, expected %d" tail_clean.Fabric.replies
           expected_replies);
    if tail_faults.Fabric.replies = 0 then
      failwith "E23 faults: no replies survived the fault plan";
    if tail_clean.Fabric.p99 <= 0 || tail_clean.Fabric.p99 < tail_clean.Fabric.p50 then
      failwith "E23: nonsensical clean p99";
    if totals_clean.Fabric.kicks * 2 > totals_clean.Fabric.sent then
      failwith "E23: doorbell coalescing regressed (kicks > sent/2)";
    (* --- scenario 3: live-migrate a backend mid-benchmark --- *)
    let src = Hypervisor.create ~host:(Host.create ~frames:8192 ()) () in
    let vms =
      List.map
        (fun s -> Images.create_vm src ~name:s.P.vname s.P.setup)
        (Fabric.mk_vms shape 0)
    in
    let cell_mig = Fabric.wire shape ~cell:0 src in
    let sw_mig = cell_mig.Fabric.sw in
    let victim = List.nth vms 1 (* backend0 *) in
    let clients_vms =
      List.filteri (fun i _ -> i > backends) vms
    in
    let some_traffic () =
      List.exists
        (fun vm ->
          match vm.Vm.vnet with
          | Some v -> Virtio_net.frames_sent v > batch
          | None -> false)
        clients_vms
    in
    let spins = ref 0 in
    while (not (some_traffic ())) && !spins < 200 do
      ignore (Hypervisor.run src ~budget:200_000L);
      incr spins
    done;
    let dst = Hypervisor.create ~host:(Host.create ~frames:8192 ()) () in
    Hypervisor.add_ticker dst (Switch.tick sw_mig);
    Hypervisor.add_event_source dst (fun () -> Switch.next_event sw_mig);
    let old_vnet = Option.get victim.Vm.vnet in
    let mig_link = Link.create () in
    let _twin, mig_result =
      Migrate.stop_and_copy ~src ~dst ~vm:victim ~link:mig_link ()
    in
    let all_clients_halted () = List.for_all Vm.halted clients_vms in
    let slices = ref 0 in
    while (not (all_clients_halted ())) && !slices < 120 do
      ignore (Hypervisor.run src ~budget:500_000L);
      ignore (Hypervisor.run dst ~budget:500_000L);
      incr slices
    done;
    if not (all_clients_halted ()) then
      failwith "E23 migration: clients did not finish";
    (* the clients' bounded final drain can beat the tail of the reply
       stream; keep driving both hosts a fixed number of slices so every
       reply reaches the switch egress (where the snoop counts it) *)
    for _ = 1 to 20 do
      ignore (Hypervisor.run src ~budget:500_000L);
      ignore (Hypervisor.run dst ~budget:500_000L)
    done;
    (* host-level conservation must hold across the handoff; the twin's
       adapter counters join the source-side ones *)
    let mig_vnets =
      Fabric.host_vnets src @ Fabric.host_vnets dst @ [ old_vnet ]
    in
    (try Fabric.check_conserved cell_mig mig_vnets
     with Failure m -> failwith ("E23 migration: " ^ m));
    let tail_mig = Fabric.tail cell_mig.Fabric.latencies in
    if tail_mig.Fabric.replies <> expected_replies / hosts * 1 then
      (* one cell's worth of clients: clients * requests replies *)
      failwith
        (Printf.sprintf "E23 migration: %d replies, expected %d" tail_mig.Fabric.replies
           (clients * requests));
    (* --- table + BENCH_net.json --- *)
    let t =
      Tablefmt.create
        [ ("scenario", Tablefmt.Left); ("replies", Tablefmt.Right);
          ("p50", Tablefmt.Right); ("p95", Tablefmt.Right);
          ("p99", Tablefmt.Right); ("max", Tablefmt.Right);
          ("drops", Tablefmt.Right); ("frames/kick", Tablefmt.Right) ]
    in
    let row name (l : Fabric.tail) totals =
      Tablefmt.add_row t
        [ name; Tablefmt.cell_i l.replies; Tablefmt.cell_i l.p50; Tablefmt.cell_i l.p95;
          Tablefmt.cell_i l.p99; Tablefmt.cell_i l.max;
          Tablefmt.cell_i (totals.Fabric.sw_drops + totals.Fabric.wire_dropped);
          Fabric.frames_per_kick totals ]
    in
    row "clean" tail_clean totals_clean;
    row "link faults" tail_faults totals_faults;
    let mig_totals = Fabric.totals [ (cell_mig, mig_vnets) ] in
    row "live migration" tail_mig mig_totals;
    Tablefmt.print t;
    let scenario name (l : Fabric.tail) totals extra =
      Printf.sprintf
        "    {\"name\": \"net/%s\", \"replies\": %d, \"p50\": %d, \"p95\": \
         %d, \"p99\": %d, \"max\": %d,\n\
        \     \"sent\": %d, \"received\": %d, \"switch_drops\": %d, \
         \"wire_dropped\": %d, \"kicks\": %d%s}"
        name l.replies l.p50 l.p95 l.p99 l.max totals.Fabric.sent totals.Fabric.received
        totals.Fabric.sw_drops totals.Fabric.wire_dropped totals.Fabric.kicks extra
    in
    write_json "BENCH_net.json" ~key:"scenarios"
      ~header:
        (Printf.sprintf
           "  \"hosts\": %d, \"clients_per_host\": %d, \"backends_per_host\": \
            %d, \"requests_per_client\": %d,\n\
           \  \"domains_checked\": [1, 4], \"byte_identical\": true,\n"
           hosts clients backends requests)
      [ scenario "clean" tail_clean totals_clean "";
        scenario "faults" tail_faults totals_faults "";
        scenario "migration" tail_mig mig_totals
          (Printf.sprintf ", \"downtime_cycles\": %Ld, \"pages_sent\": %d"
             mig_result.Migrate.downtime_cycles mig_result.Migrate.pages_sent) ];
    Printf.printf
      "\nOpen-loop request/reply latency through the switched fabric\n\
       (client stamp to switch egress, simulated cycles).  The fleet\n\
       report and the per-host fabric digests are byte-identical at 1\n\
       and 4 domains, clean and under link faults (asserted); every\n\
       frame lands in a named counter (conservation asserted per host\n\
       and across the live migration).  Doorbell coalescing keeps kicks\n\
       well under frames sent (asserted).  Written to BENCH_net.json.\n"
  end

(* ------------------------------------------------------------------ *)

(* The block engine is a pure mechanism change: simulated cycles must be
   bit-identical to the interpreter on every workload (asserted here),
   while host wall-clock time drops because straight-line runs skip
   per-instruction fetch translation and decode.  Results also land in
   BENCH_engine.json for the CI trendline. *)

(* A fixed host workload, timed beside each engine run so that a
   throughput gate can divide out how fast the host ran at that moment:
   pseudo-random reads and writes over an 8 MiB table, boxed [Int64]
   arithmetic, short-lived allocation and data-dependent branches, the
   reference interpreter's own mix, but none of its code, so a slower
   interpreter does not slow the probe.  In two sets of ten processes
   of one build, the best of six cpu-spin interpreter runs spread by a
   factor of 1.69 and 1.48 (slowest over fastest); divided by the best
   of six probe runs, by 1.12 and 1.15 with this table, 1.06 and 1.38
   with a 4 KiB one, 1.50 and 1.65 with 2 MiB.  Returns CPU seconds. *)
let probe_table = lazy (Bytes.make (8 lsl 20) '\001')

let host_probe () =
  let table = Lazy.force probe_table in
  let t0 = Sys.time () in
  let mask = Bytes.length table - 8 in
  let acc = ref 0L and live = ref [] and idx = ref 0 in
  for i = 1 to 1_000_000 do
    idx := ((!idx * 1103515245) + 12345 + i) land mask land lnot 7;
    let x = Sys.opaque_identity (Int64.add (Bytes.get_int64_le table !idx) (Int64.of_int i)) in
    Bytes.set_int64_le table ((!idx + 4096) land mask) x;
    acc := Int64.add !acc (if Int64.logand x 0x10L = 0L then x else Int64.neg x);
    live := if i land 7 = 0 then [] else x :: !live
  done;
  ignore (Sys.opaque_identity (!acc, !live));
  Sys.time () -. t0

let engine_bench () =
  if section "ENGINE" "Execution engines: interp vs block (equal simulated cycles)" then begin
    let cases =
      [
        ( "cpu-spin",
          Images.plan ~user:(Workloads.cpu_spin ~iters:(scale 1_000_000L 100_000L)) () );
        ( "branch-mix",
          Images.plan ~user:(Workloads.branch_mix ~iters:(scale 600_000L 60_000L)) () );
        ( "memcpy",
          Images.plan ~heap_pages:18
            ~user:
              (Workloads.stream_copy ~words:4096 ~iters:(scale 150 15))
            () );
        ( "null-syscall",
          Images.plan ~user:(Workloads.syscall_loop ~count:(scale 4_000L 400L)) () );
        ( "pgtable-churn",
          Images.plan
            ~user:(Workloads.pt_churn ~batch:16 ~count:(scale 1_500 150) ())
            () );
      ]
    in
    (* Each repetition starts from a compacted heap (without it, later
       repetitions ran slower than the first, on the heap earlier runs
       left) and times the host probe right before the run; the best
       of each is kept. *)
    let time_engine ~engine setup =
      let reps = if !quick then 1 else 3 in
      let best = ref infinity in
      let probe = ref infinity in
      let cycles = ref 0L in
      let instret = ref 0L in
      let traces = ref 0 in
      for _ = 1 to reps do
        Gc.compact ();
        probe := Float.min !probe (host_probe ());
        let t0 = Sys.time () in
        let vm, total = run_vm ~engine setup in
        let dt = Sys.time () -. t0 in
        cycles := total;
        instret :=
          Array.fold_left
            (fun acc v -> Int64.add acc v.Vcpu.state.Velum_machine.Cpu.instret)
            0L vm.Vm.vcpus;
        traces :=
          (match vm.Vm.engine.Velum_machine.Engine.cache with
          | Some c -> Velum_machine.Trans_cache.trace_follows c
          | None -> 0);
        if dt < !best then best := dt
      done;
      (!best, !probe, !cycles, !instret, !traces)
    in
    let t =
      Tablefmt.create
        [ ("workload", Tablefmt.Left); ("interp s", Tablefmt.Right);
          ("block s", Tablefmt.Right); ("speedup", Tablefmt.Right);
          ("interp MIPS", Tablefmt.Right); ("block MIPS", Tablefmt.Right);
          ("probe s", Tablefmt.Right); ("interp/probe", Tablefmt.Right);
          ("traces", Tablefmt.Right); ("sim cycles", Tablefmt.Right) ]
    in
    let results =
      List.map
        (fun (name, setup) ->
          let si, probe, ci, ri, _ = time_engine ~engine:Velum_machine.Engine.Interp setup in
          let sb, _, cb, rb, traces = time_engine ~engine:Velum_machine.Engine.Block setup in
          if ci <> cb then
            failwith
              (Printf.sprintf
                 "ENGINE %s: simulated cycles diverged (interp %Ld, block %Ld)" name ci
                 cb);
          if ri <> rb then
            failwith
              (Printf.sprintf
                 "ENGINE %s: retired instructions diverged (interp %Ld, block %Ld)"
                 name ri rb);
          let speedup = si /. sb in
          (* guest instructions retired per host wall-clock second *)
          let mips = Int64.to_float rb /. sb /. 1e6 in
          let interp_mips = Int64.to_float ri /. si /. 1e6 in
          (* millions of instructions the interpreter retires in the
             time of one probe run: its throughput with the host's
             speed of the moment divided out *)
          let interp_probe = interp_mips *. probe in
          Tablefmt.add_row t
            [ name; Tablefmt.cell_f ~decimals:3 si; Tablefmt.cell_f ~decimals:3 sb;
              Tablefmt.cell_f ~decimals:2 speedup; Tablefmt.cell_f ~decimals:1 interp_mips;
              Tablefmt.cell_f ~decimals:1 mips; Tablefmt.cell_f ~decimals:4 probe;
              Tablefmt.cell_f ~decimals:3 interp_probe; string_of_int traces;
              Int64.to_string ci ];
          (name, si, sb, speedup, interp_mips, mips, probe, interp_probe, traces, ci))
        cases
    in
    Tablefmt.print t;
    (* wall clock is machine-local: record the core count beside it *)
    write_json "BENCH_engine.json"
      ~header:(Printf.sprintf "  \"cores\": %d,\n" (Domain.recommended_domain_count ()))
      (List.map
         (fun (name, si, sb, speedup, interp_mips, mips, probe, interp_probe, traces, cycles) ->
           Printf.sprintf
             "    {\"name\": \"engine/%s\", \"interp_s\": %.6f, \"block_s\": %.6f, \
              \"speedup\": %.3f, \"interp_mips\": %.2f, \"block_mips\": %.2f, \
              \"probe_s\": %.6f, \"interp_probe\": %.4f, \
              \"trace_follows\": %d, \"sim_cycles\": %Ld}"
             name si sb speedup interp_mips mips probe interp_probe traces cycles)
         results);
    Printf.printf
      "\nSimulated cycles and retired instructions are identical by construction\n\
       (asserted above); the speedup is pure host wall clock.  'probe s' is\n\
       the best CPU time of a fixed host workload run right before each\n\
       interpreter repetition, 'interp/probe' the interpreter's MIPS times\n\
       it (host speed divided out).  'traces' counts dispatches absorbed by\n\
       compiled superblock traces.  Written to BENCH_engine.json.\n"
  end

(* ------------------------------------------------------------------ *)

let () =
  Array.iteri
    (fun i arg ->
      if i > 0 then
        match arg with
        | "--quick" -> quick := true
        | "--only" -> ()
        | a when String.length a > 0 && a.[0] <> '-' -> only := a :: !only
        | _ -> ())
    Sys.argv;
  Printf.printf "Velum benchmark harness (deterministic simulated cycles)\n";
  if !quick then Printf.printf "[quick mode]\n";
  e1 ();
  e2 ();
  e3 ();
  e4 ();
  e5 ();
  e6 ();
  e7 ();
  e8 ();
  e9 ();
  e10 ();
  e11 ();
  e12 ();
  e13 ();
  e14 ();
  e15 ();
  e16 ();
  e17 ();
  e18 ();
  e19 ();
  e20 ();
  e22 ();
  e23 ();
  a1 ();
  a2 ();
  a3 ();
  a4 ();
  a5 ();
  engine_bench ();
  Printf.printf "\nDone.\n"
