(* Benchmark harness: regenerates every table and figure of the
   evaluation (experiments E1-E11 in DESIGN.md / EXPERIMENTS.md), plus a
   Bechamel suite that times the simulator's own hot paths.

   All experiment metrics are *simulated cycles* and are deterministic;
   only the Bechamel section measures wall-clock time.

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

let run_native setup =
  let platform = Platform.create ~frames:(setup.Images.frames + 16) () in
  Images.load_native platform setup;
  (match Platform.run platform with
  | Platform.Halted -> ()
  | Platform.Out_of_budget -> failwith "native run: out of budget"
  | Platform.Deadlock -> failwith "native run: deadlock");
  (platform, Platform.cycles platform)

let run_vm ?(paging = Vm.Nested_paging) ?(pv = Vm.no_pv) ?host_frames ?exec_mode ?engine
    setup =
  let frames =
    match host_frames with Some f -> f | None -> setup.Images.frames + 1024
  in
  let host = Host.create ~frames () in
  let hyp = Hypervisor.create ~host () in
  let vm =
    Hypervisor.create_vm hyp ~name:"bench" ~mem_frames:setup.Images.frames ~paging ~pv
      ?exec_mode ?engine ~entry:Images.entry ()
  in
  Images.load_vm vm setup;
  (match Hypervisor.run hyp ~budget:20_000_000_000L with
  | Hypervisor.All_halted -> ()
  | o ->
      failwith
        (Printf.sprintf "vm run did not halt (%s)"
           (match o with
           | Hypervisor.Out_of_budget -> "budget"
           | Hypervisor.Idle_deadlock -> "deadlock"
           | _ -> "?")));
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
            let vm =
              Hypervisor.create_vm hyp ~name:(Printf.sprintf "w%d" w)
                ~mem_frames:setup.Images.frames ~weight:w ~entry:Images.entry ()
            in
            Images.load_vm vm setup;
            vm)
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
        let mk name =
          let vm =
            Hypervisor.create_vm hyp ~name ~mem_frames:setup.Images.frames
              ~entry:Images.entry ()
          in
          Images.load_vm vm setup;
          vm
        in
        let capped = mk "capped" and free = mk "free" in
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
            let host_a = Host.create ~frames:(setup.Images.frames + 1024) () in
            let host_b = Host.create ~frames:(setup.Images.frames + 1024) () in
            let src = Hypervisor.create ~host:host_a () in
            let dst = Hypervisor.create ~host:host_b () in
            let vm =
              Hypervisor.create_vm src ~name:"mig" ~mem_frames:setup.Images.frames
                ~entry:Images.entry ()
            in
            Images.load_vm vm setup;
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
          List.init n (fun i ->
              let vm =
                Hypervisor.create_vm hyp ~name:(Printf.sprintf "vm%d" i)
                  ~mem_frames:setup.Images.frames ~entry:Images.entry ()
              in
              Images.load_vm vm setup;
              vm)
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
    (* A 50-VM fleet shaped like the deck's inventory: domain
       controllers, terminal servers, ERP app servers, SQL boxes, a mail
       suite, web servers, developer test machines. *)
    let mk name n cpu mem = List.init n (fun i ->
        { Placement.vm_name = Printf.sprintf "%s-%d" name i; cpu_units = cpu; mem_mb = mem })
    in
    let fleet =
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
    in
    let spec = Placement.default_host in
    let plan = Placement.first_fit_decreasing spec fleet in
    let report = Placement.cost_savings spec fleet plan () in
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
      let host = Host.create ~frames:(setup.Images.frames + 1024) () in
      let hyp = Hypervisor.create ~host () in
      let vm =
        Hypervisor.create_vm hyp ~name:"oc" ~mem_frames:setup.Images.frames
          ~entry:Images.entry ()
      in
      Images.load_vm vm setup;
      (* boot + first touch pass, then reclaim, then measure the rest *)
      ignore (Hypervisor.run hyp ~budget:2_000_000L);
      let reclaimed = reclaim vm in
      let before = Int64.add (Vm.guest_cycles vm) (Vm.vmm_cycles vm) in
      (match Hypervisor.run hyp ~budget:20_000_000_000L with
      | Hypervisor.All_halted -> ()
      | _ -> failwith "overcommit case did not finish");
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
        let host = Host.create ~frames:((3 * setup.Images.frames) + 1024) () in
        let hyp = Hypervisor.create ~host () in
        let vm =
          Hypervisor.create_vm hyp ~name:"snap" ~mem_frames:setup.Images.frames
            ~entry:Images.entry ()
        in
        Images.load_vm vm setup;
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
        let primary =
          Hypervisor.create ~host:(Host.create ~frames:(setup.Images.frames + 1024) ()) ()
        in
        let backup =
          Hypervisor.create ~host:(Host.create ~frames:(setup.Images.frames + 1024) ()) ()
        in
        let vm =
          Hypervisor.create_vm primary ~name:"ha" ~mem_frames:setup.Images.frames
            ~entry:Images.entry ()
        in
        Images.load_vm vm setup;
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
          List.init vms (fun i ->
              let vm =
                Hypervisor.create_vm hyp ~name:(Printf.sprintf "v%d" i)
                  ~mem_frames:setup.Images.frames ~entry:Images.entry ()
              in
              Images.load_vm vm setup;
              vm)
        in
        (match Hypervisor.run hyp with
        | Hypervisor.All_halted -> ()
        | _ -> failwith "E13 fleet did not finish");
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
        Hypervisor.create_vm hyp ~name:"client" ~mem_frames:client_setup.Images.frames
          ~paging ~exec_mode ~nic:(link, `A) ~entry:Images.entry ()
      in
      let server =
        Hypervisor.create_vm hyp ~name:"server" ~mem_frames:server_setup.Images.frames
          ~paging ~exec_mode ~nic:(link, `B) ~entry:Images.entry ()
      in
      Images.load_vm client client_setup;
      Images.load_vm server server_setup;
      (match Hypervisor.run hyp with
      | Hypervisor.All_halted -> ()
      | _ -> failwith "E15 pair did not finish");
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

let run_vm_tlb ~tlb_size ~paging setup =
  let host = Host.create ~frames:(setup.Images.frames + 1024) () in
  let hyp = Hypervisor.create ~host () in
  let vm =
    Hypervisor.create_vm hyp ~name:"abl" ~mem_frames:setup.Images.frames ~paging
      ~tlb_size ~entry:Images.entry ()
  in
  Images.load_vm vm setup;
  (match Hypervisor.run hyp ~budget:20_000_000_000L with
  | Hypervisor.All_halted -> ()
  | _ -> failwith "ablation run did not halt");
  Int64.add (Vm.guest_cycles vm) (Vm.vmm_cycles vm)

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
          let c1 = run_vm_tlb ~tlb_size ~paging (build n1) in
          let c2 = run_vm_tlb ~tlb_size ~paging (build n2) in
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
        let run n =
          let setup = build n in
          let host = Host.create ~frames:(setup.Images.frames + 1024) ~cost () in
          let hyp = Hypervisor.create ~host () in
          let vm =
            Hypervisor.create_vm hyp ~name:"a2" ~mem_frames:setup.Images.frames
              ~entry:Images.entry ()
          in
          Images.load_vm vm setup;
          (match Hypervisor.run hyp ~budget:20_000_000_000L with
          | Hypervisor.All_halted -> ()
          | _ -> failwith "a2 run did not halt");
          Int64.add (Vm.guest_cycles vm) (Vm.vmm_cycles vm)
        in
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
          let src =
            Hypervisor.create
              ~host:(Host.create ~frames:(setup.Images.frames + 1024) ())
              ()
          in
          let dst =
            Hypervisor.create
              ~host:(Host.create ~frames:(setup.Images.frames + 1024) ())
              ()
          in
          let vm =
            Hypervisor.create_vm src ~name:"a4" ~mem_frames:setup.Images.frames
              ~entry:Images.entry ()
          in
          Images.load_vm vm setup;
          (match Hypervisor.run src with
          | Hypervisor.All_halted -> ()
          | _ -> failwith "a4 guest did not finish");
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
    let scale l q = if !quick then q else l in
    let vm_instret vm =
      Array.fold_left
        (fun acc (v : Vcpu.t) ->
          Int64.add acc v.Vcpu.state.Velum_machine.Cpu.instret)
        0L vm.Vm.vcpus
    in
    (* --- pre-copy migration vs frame loss rate ----------------------- *)
    let mig_case spec =
      let setup =
        Images.plan ~heap_pages:128
          ~user:(Workloads.memwalk ~pages:96 ~iters:5000 ~write:true) ()
      in
      let host_a = Host.create ~frames:(setup.Images.frames + 1024) () in
      let host_b = Host.create ~frames:(setup.Images.frames + 1024) () in
      let src = Hypervisor.create ~host:host_a () in
      let dst = Hypervisor.create ~host:host_b () in
      let vm =
        Hypervisor.create_vm src ~name:"mig" ~mem_frames:setup.Images.frames
          ~entry:Images.entry ()
      in
      Images.load_vm vm setup;
      ignore (Hypervisor.run src ~budget:3_000_000L);
      let link = Link.create () in
      let f = Fault.create ~seed:42L () in
      (match spec with
      | `Drop p -> Fault.set_prob f Fault.Drop p
      | `Partition -> Fault.add_window f Fault.Partition ~lo:0L ~hi:Int64.max_int);
      Link.set_faults link f;
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
      (match Hypervisor.run hyp ~budget:20_000_000_000L with
      | Hypervisor.All_halted -> ()
      | _ -> failwith "E16: migrated guest did not halt");
      let output =
        if r.Migrate.aborted then Vm.console_output survivor
        else Vm.console_output vm ^ Vm.console_output survivor
      in
      (r, output, vm_instret survivor, reclaimed)
    in
    let rates = scale [ 0.0; 0.01; 0.05; 0.10 ] [ 0.0; 0.05 ] in
    let t =
      Tablefmt.create
        [ ("loss", Tablefmt.Right); ("total kcyc", Tablefmt.Right);
          ("downtime kcyc", Tablefmt.Right); ("pages", Tablefmt.Right);
          ("rounds", Tablefmt.Right); ("retransmits", Tablefmt.Right);
          ("aborted", Tablefmt.Left); ("state match", Tablefmt.Left) ]
    in
    let base_r, base_out, base_instret, _ = mig_case (`Drop 0.0) in
    let mig_rows =
      List.map
        (fun p ->
          let r, out, instret, reclaimed =
            if p = 0.0 then (base_r, base_out, base_instret, true)
            else mig_case (`Drop p)
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
          ignore reclaimed;
          (Printf.sprintf "drop-%.0f%%" (p *. 100.0), p, r, state_match, true))
        rates
    in
    (* total partition: retries exhaust, migration rolls back, the source
       resumes and still finishes identically; destination frames are
       reclaimed *)
    let ab_r, ab_out, ab_instret, ab_reclaimed = mig_case `Partition in
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
      let host_a = Host.create ~frames:(setup.Images.frames + 1024) () in
      let host_b = Host.create ~frames:(setup.Images.frames + 1024) () in
      let primary = Hypervisor.create ~host:host_a () in
      let backup = Hypervisor.create ~host:host_b () in
      let vm =
        Hypervisor.create_vm primary ~name:"ha" ~mem_frames:setup.Images.frames
          ~entry:Images.entry ()
      in
      Images.load_vm vm setup;
      ignore (Hypervisor.run primary ~budget:2_000_000L);
      let link = Link.create () in
      let f = Fault.create ~seed:42L () in
      (match spec with
      | `Drop p -> Fault.set_prob f Fault.Drop p
      | `Partition lo -> Fault.add_window f Fault.Partition ~lo ~hi:Int64.max_int);
      Link.set_faults link f;
      let twin, st =
        Replicate.protect ~primary ~backup ~vm ~link ~epoch_cycles:200_000L
          ~epochs:6 ()
      in
      (* the backup must be runnable at the last completed checkpoint *)
      let before = vm_instret twin in
      ignore (Hypervisor.run backup ~budget:100_000L);
      if vm_instret twin <= before then
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
    let oc = open_out "BENCH_fault.json" in
    output_string oc "{\n  \"benchmarks\": [\n";
    List.iter
      (fun (name, loss, (r : Migrate.result), state_match, reclaimed) ->
        Printf.fprintf oc
          "    {\"name\": \"fault/migrate/%s\", \"loss\": %.2f, \"total_cycles\": \
           %Ld, \"downtime_cycles\": %Ld, \"pages\": %d, \"rounds\": %d, \
           \"retransmits\": %d, \"aborted\": %b, \"state_match\": %b, \
           \"frames_reclaimed\": %b},\n"
          name loss r.Migrate.total_cycles r.Migrate.downtime_cycles
          r.Migrate.pages_sent r.Migrate.rounds r.Migrate.retransmits
          r.Migrate.aborted state_match reclaimed)
      mig_rows;
    List.iteri
      (fun i (name, (st : Replicate.stats)) ->
        Printf.fprintf oc
          "    {\"name\": \"fault/replicate/%s\", \"epochs_completed\": %d, \
           \"retransmits\": %d, \"link_failed\": %b, \"paused_cycles\": %Ld}%s\n"
          name st.Replicate.epochs_completed st.Replicate.retransmits
          st.Replicate.link_failed st.Replicate.paused_cycles
          (if i = List.length rep_rows - 1 then "" else ","))
      rep_rows;
    output_string oc "  ]\n}\n";
    close_out oc;
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
    let scale l q = if !quick then q else l in
    let module Asm = Velum_isa.Asm in
    let vm_instret vm =
      Array.fold_left
        (fun acc (v : Vcpu.t) ->
          Int64.add acc v.Vcpu.state.Velum_machine.Cpu.instret)
        0L vm.Vm.vcpus
    in
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
      (match Hypervisor.run hyp ~budget:20_000_000_000L with
      | Hypervisor.All_halted -> ()
      | _ -> failwith "E17: restored reference did not halt");
      vm_instret vm
    in
    let expect_finish = reference_finish img1 in
    let sectors = Store.sectors_for ~image_bytes:(Bytes.length img2) in
    (* delta-commit sweep: baseline prepared once, byte-cloned per offset *)
    let sweep () =
      let base = Store.create ~sectors () in
      (match Store.commit base img1 with
      | Store.Committed { gen = 1; _ } -> ()
      | _ -> failwith "E17: baseline commit failed");
      let total = Store.commit_bytes base img2 in
      let offsets = ref 0 and prev = ref 0 and bad = ref 0 in
      let off = ref 0 in
      while !off < total do
        let probe = Store.clone base in
        (match Store.commit ~crash_at:!off probe img2 with
        | Store.Torn _ -> ()
        | Store.Committed _ -> incr bad);
        (match Store.recover (Store.mount (Store.device probe)) with
        | Some (img, 1) when Bytes.equal img img1 -> incr prev
        | _ -> incr bad);
        incr offsets;
        off := !off + sweep_stride
      done;
      (* a torn-then-recovered image must still boot and run to lockstep *)
      if reference_finish img1 <> expect_finish then incr bad;
      (!offsets, !prev, !bad, total)
    in
    (* GC-compaction sweep: two live generations, cut the compaction —
       the newest one must survive every offset *)
    let gc_sweep () =
      let base = Store.create ~sectors () in
      (match Store.commit base img1 with
      | Store.Committed { gen = 1; _ } -> ()
      | _ -> failwith "E17: gc baseline commit failed");
      (match Store.commit base img2 with
      | Store.Committed { gen = 2; _ } -> ()
      | _ -> failwith "E17: gc second commit failed");
      let total = Store.gc_bytes base in
      let offsets = ref 0 and prev = ref 0 and bad = ref 0 in
      let off = ref 0 in
      while !off < total do
        let probe = Store.clone base in
        (match Store.gc ~crash_at:!off probe with
        | Store.Gc_torn _ -> ()
        | Store.Gc_committed _ -> incr bad);
        (match Store.recover (Store.mount (Store.device probe)) with
        | Some (img, 2) when Bytes.equal img img2 -> incr prev
        | _ -> incr bad);
        incr offsets;
        off := !off + sweep_stride
      done;
      (!offsets, !prev, !bad, total)
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
      (match Hypervisor.run hyp with
      | Hypervisor.All_halted -> ()
      | _ -> failwith "E17: reference run did not halt");
      vm_instret vm
    in
    let supervise cadence =
      let hyp = Hypervisor.create ~host:(Host.create ~frames:2048 ()) () in
      let vm = unikernel hyp "work" (spin_n_then_halt work) in
      let probe = Snapshot.capture vm in
      let store =
        Store.create
          ~sectors:(Store.sectors_for ~image_bytes:(Snapshot.size_bytes probe))
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
      if vm_instret (Ha.vm sup) <> reference then
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
      let primary =
        Hypervisor.create ~host:(Host.create ~frames:(setup.Images.frames + 512) ()) ()
      in
      let backup =
        Hypervisor.create ~host:(Host.create ~frames:(setup.Images.frames + 512) ()) ()
      in
      let vm =
        Hypervisor.create_vm primary ~name ~mem_frames:setup.Images.frames
          ~entry:Images.entry ()
      in
      Images.load_vm vm setup;
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
    let oc = open_out "BENCH_ha.json" in
    output_string oc "{\n  \"benchmarks\": [\n";
    Printf.fprintf oc
      "    {\"name\": \"ha/crash_sweep\", \"commit_bytes\": %d, \"offsets\": %d, \
       \"recover_previous\": %d, \"failures\": %d},\n"
      commit_total offsets prev bad;
    Printf.fprintf oc
      "    {\"name\": \"ha/crash_sweep_gc\", \"gc_bytes\": %d, \"offsets\": %d, \
       \"recover_newest\": %d, \"failures\": %d},\n"
      gc_total gc_offsets gc_prev gc_bad;
    List.iter
      (fun (cadence, (s : Ha.stats), elapsed, avail, overhead, mttr, dedup) ->
        Printf.fprintf oc
          "    {\"name\": \"ha/supervisor/cadence_%Ld\", \"checkpoints\": %d, \
           \"torn\": %d, \"checkpoint_cycles\": %Ld, \"bytes_written\": %d, \
           \"logical_bytes\": %d, \"dedup_ratio\": %.3f, \"frames_churned\": \
           %d, \"restarts\": %d, \"mttr_cycles\": %Ld, \"elapsed_cycles\": \
           %Ld, \"availability\": %.6f, \"checkpoint_overhead\": %.6f},\n"
          cadence s.Ha.checkpoints s.Ha.torn_checkpoints s.Ha.checkpoint_cycles
          s.Ha.ckpt_bytes s.Ha.ckpt_logical_bytes dedup s.Ha.frames_churned
          s.Ha.restarts mttr elapsed avail overhead)
      sup_rows;
    List.iteri
      (fun i (name, (s : Ha.Failover.stats), avail) ->
        let open Ha.Failover in
        Printf.fprintf oc
          "    {\"name\": \"ha/failover/%s\", \"generation\": %d, \"hb_sent\": \
           %d, \"hb_lost\": %d, \"hb_seen\": %d, \"failover_at\": %s, \
           \"mttr_cycles\": %s, \"split_brain_epochs\": %d, \"fenced\": %b, \
           \"availability\": %.6f}%s\n"
          name s.generation s.hb_sent s.hb_lost s.hb_seen
          (match s.failover_at with Some v -> Int64.to_string v | None -> "null")
          (match s.mttr with Some v -> Int64.to_string v | None -> "null")
          s.split_brain_epochs s.fenced avail
          (if i = List.length fo_rows - 1 then "" else ","))
      fo_rows;
    output_string oc "  ]\n}\n";
    close_out oc;
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
       over in ~hb_miss_limit epochs and generation-fences the stale primary;\n\
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
    let scale l q = if !quick then q else l in
    let scale_i l q = if !quick then q else l in
    let cases =
      [
        ( "cpu-spin",
          Images.plan ~user:(Workloads.cpu_spin ~iters:(scale 1_000_000L 100_000L)) () );
        ( "syscalls",
          Images.plan ~user:(Workloads.syscall_loop ~count:(scale 4_000L 400L)) () );
        ( "memwalk",
          Images.plan ~heap_pages:64
            ~user:(Workloads.memwalk ~pages:64 ~iters:(scale_i 16 4) ~write:true)
            () );
      ]
    in
    let run_once ~traced setup =
      let host = Host.create ~frames:(setup.Images.frames + 1024) () in
      let hyp = Hypervisor.create ~host () in
      let tr =
        if traced then begin
          let tr = Trace.create () in
          Hypervisor.set_trace hyp tr;
          Some tr
        end
        else None
      in
      let vm =
        Hypervisor.create_vm hyp ~name:"bench" ~mem_frames:setup.Images.frames
          ~entry:Images.entry ()
      in
      Images.load_vm vm setup;
      let t0 = Sys.time () in
      (match Hypervisor.run hyp ~budget:20_000_000_000L with
      | Hypervisor.All_halted -> ()
      | _ -> failwith "E18: run did not halt");
      let dt = Sys.time () -. t0 in
      let cycles = Int64.add (Vm.guest_cycles vm) (Vm.vmm_cycles vm) in
      (dt, cycles, Monitor.total_exits vm.Vm.monitor, tr)
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
    let oc = open_out "BENCH_trace.json" in
    output_string oc "{\n  \"benchmarks\": [\n";
    List.iteri
      (fun i (name, cycles, exits, events, off_s, on_s, overhead) ->
        Printf.fprintf oc
          "    {\"name\": \"trace/%s\", \"sim_cycles\": %Ld, \"sim_cycles_added\": 0, \
           \"exits\": %d, \"events\": %d, \"off_s\": %.6f, \"on_s\": %.6f, \
           \"wall_overhead_pct\": %.2f}%s\n"
          name cycles exits events off_s on_s overhead
          (if i = List.length results - 1 then "" else ","))
      results;
    output_string oc "  ]\n}\n";
    close_out oc;
    Printf.printf
      "\nSimulated cycles and exit counts are identical with tracing on or off\n\
       (asserted above, 'sim_cycles_added: 0'), and two traced runs export\n\
       byte-identical JSONL.  The overhead column is host wall clock only.\n\
       Written to BENCH_trace.json.\n"
  end

(* E19: parallel hosts on OCaml domains.  The round-barrier runner must
   produce a byte-identical fleet report (cycles, exits, monitor
   counters, heartbeats, link state) and byte-identical per-host trace
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
    let oc = open_out "BENCH_par.json" in
    Printf.fprintf oc
      "{\n  \"cores\": %d, \"hosts\": %d, \"rounds\": %d, \"quantum\": %Ld,\n\
      \  \"benchmarks\": [\n"
      cores hosts rounds quantum;
    List.iteri
      (fun i (d, (wall, _, _)) ->
        Printf.fprintf oc
          "    {\"name\": \"par/domains-%d\", \"wall_s\": %.6f, \"speedup\": \
           %.3f, \"byte_identical\": true}%s\n"
          d wall (wall1 /. wall)
          (if i = List.length results - 1 then "" else ","))
      results;
    output_string oc "  ]\n}\n";
    close_out oc;
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
    let setup =
      Images.plan ~heap_pages:16 ~user:(Workloads.dirty_loop ~pages:8 ~delay:1500) ()
    in
    let prio i = match i mod 3 with 0 -> C.High | 1 -> C.Normal | _ -> C.Low in
    let mk ~arrives tag i =
      let group = if arrives <= 0 && i < 4 then Some 0 else None in
      C.desc ~prio:(prio i) ?group ~arrives ~name:(Printf.sprintf "%s%02d" tag i) setup
    in
    let workload =
      List.init (2 * hosts) (mk ~arrives:0 "vm") @ List.init 6 (mk ~arrives:6 "burst")
    in
    let faults =
      match
        Fault.parse "seed=7,cluster.hb=0.05,cluster.evac=0.1,cluster.drain=0.1,drop=0.02"
      with
      | Ok f -> f
      | Error e -> failwith e
    in
    let cfg =
      C.config ~quantum ~rounds ~seed:11L ~faults
        ~cap_units:(3 * setup.Images.frames)
        ~headroom:setup.Images.frames ~checkpoint_every:4
        ~kills:[ (5, 1); (8, 9) ]
        ~drains:[ (12, 3) ]
        ~hosts ~workload ()
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
      hosts (List.length workload) rounds quantum m.C.availability m.C.slo_violations
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
    let scale l q = if !quick then q else l in
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
          (match Store.commit store img with
          | Store.Committed _ -> ()
          | Store.Torn _ -> failwith "E22: baseline commit torn");
          let delta_bytes = ref 0 in
          for n = 1 to commits_n do
            for c = 0 to k - 1 do
              fill_page img (((c * 97) + (n * 13)) mod pages) n
            done;
            match Store.commit store img with
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
          match Store.commit ~id:(Printf.sprintf "vm%d" s) shared img with
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
    (match Store.commit store img with
    | Store.Committed _ -> ()
    | Store.Torn _ -> failwith "E22: gc baseline torn");
    for c = 0 to (pages / 2) - 1 do
      fill_page img (c * 2) 7
    done;
    (match Store.commit store img with
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
    let oc = open_out "BENCH_store.json" in
    output_string oc "{\n  \"benchmarks\": [\n";
    List.iter
      (fun (k, per_commit, dedup, gcs) ->
        Printf.fprintf oc
          "    {\"name\": \"store/churn_%d\", \"bytes_per_commit\": %d, \
           \"dedup_ratio\": %.3f, \"auto_gc_runs\": %d},\n"
          k per_commit dedup gcs)
      churn_rows;
    List.iter
      (fun (s, bytes, chunks_new, chunks_shared) ->
        Printf.fprintf oc
          "    {\"name\": \"store/stream_vm%d\", \"commit_bytes\": %d, \
           \"chunks_new\": %d, \"chunks_shared\": %d},\n"
          s bytes chunks_new chunks_shared)
      stream_rows;
    Printf.fprintf oc
      "    {\"name\": \"store/gc\", \"stream_bytes\": %d, \"live_chunks\": \
       %d, \"reclaimed_bytes\": %d}\n"
      gc_bytes gc_live gc_reclaimed;
    output_string oc "  ]\n}\n";
    close_out oc;
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
   histogrammed by a switch snoop; the fleet runs as 4 independent
   host-cells under Parallel, so the run is asserted byte-identical at
   1 and 4 domains, clean and under link faults.  A third scenario
   live-migrates a backend between two hosts mid-benchmark.  Every
   metric is simulated and the scenario is fixed (no --quick scaling):
   BENCH_net.json is committed so CI literally diffs it. *)

let e23 () =
  if section "E23" "Network fabric: LB fan-out, tail latency, faults, live migration"
  then begin
    let module P = Velum_cluster.Parallel in
    let hosts = 4 in
    let backends = 2 and clients = 2 in
    let n_ports = 1 + backends + clients in
    let requests = 24 and batch = 4 in
    (* per-cell port map: 0 = LB, 1..backends = backends, rest = clients *)
    let mac p = Int64.of_int (0x10 + p) in
    let lb_setup =
      Images.plan ~heap_pages:2 ~vnet:true
        ~user:
          (Workloads.vnet_lb ~my_mac:(mac 0)
             ~backends:(List.init backends (fun b -> mac (1 + b))))
        ()
    in
    let backend_setup b =
      Images.plan ~heap_pages:2 ~vnet:true
        ~user:(Workloads.vnet_backend ~my_mac:(mac (1 + b)) ~service:150)
        ()
    in
    let client_setup c =
      Images.plan ~heap_pages:2 ~vnet:true
        ~user:
          (Workloads.vnet_client ~my_mac:(mac (1 + backends + c)) ~lb_mac:(mac 0)
             ~peers:(n_ports - 1) ~requests ~batch ~gap:500)
        ()
    in
    let mk_vms _i =
      [ P.spec ~name:"lb" lb_setup ]
      @ List.init backends (fun b ->
            P.spec ~name:(Printf.sprintf "backend%d" b) (backend_setup b))
      @ List.init clients (fun c ->
            P.spec ~name:(Printf.sprintf "client%d" c) (client_setup c))
    in
    (* fabric builder: switch + per-port links + reply-latency snoop.
       Static MAC entries keep early traffic off the unknown-unicast
       path (guests still broadcast a boot announce).  The snoop fires
       inside the worker phase, so everything it touches is per-host. *)
    let build_fabric ?faults ~hist ~cell () hyp =
      let ports =
        Array.init n_ports (fun _ ->
            Link.create ~bytes_per_cycle:1.0 ~latency_cycles:200 ())
      in
      (match faults with
      | Some base ->
          Array.iteri
            (fun p l ->
              Link.set_faults l
                (Fault.derive base
                   ~seed:(Int64.of_int (7_001 + (cell * 97) + p))))
            ports
      | None -> ());
      let sw = Switch.create ports in
      Array.iteri (fun p _ -> Switch.learn sw ~mac:(mac p) ~port:p) ports;
      Switch.set_snoop sw
        (Some
           (fun port now frame ->
             (* a reply crossing toward a client port closes a request *)
             if
               port > backends
               && String.length frame >= 48
               && String.get_int64_le frame 16 = 2L
             then
               Histogram.add hist
                 (Int64.to_int (Int64.sub now (String.get_int64_le frame 32)))));
      Hypervisor.add_ticker hyp (Switch.tick sw);
      Hypervisor.add_event_source hyp (fun () -> Switch.next_event sw);
      List.iteri
        (fun p vm -> ignore (Vm.attach_vnet vm ~link:ports.(p) ~endpoint:`A))
        hyp.Hypervisor.vms;
      (sw, ports)
    in
    let host_vnets hyp =
      List.filter_map (fun vm -> vm.Vm.vnet) hyp.Hypervisor.vms
    in
    (* Frame conservation at host scope: what the adapters put on the
       wire, plus wire duplicates and switch flood copies, equals what
       the adapters got back plus every named drop, undelivered backlog
       and in-flight frame.  Nothing is ever lost silently. *)
    let assert_conservation ~tag hyp (sw, ports) =
      if not (Switch.conserved sw) then
        failwith (Printf.sprintf "E23 %s: switch conservation violated" tag);
      let vnets = host_vnets hyp in
      let sum f = List.fold_left (fun a v -> a + f v) 0 vnets in
      let sent = sum Virtio_net.frames_sent
      and received = sum Virtio_net.frames_received
      and rx_lost =
        sum Virtio_net.rx_dropped + sum Virtio_net.rx_overflow
      and backlog = sum Virtio_net.backlog_length in
      let asum f = Array.fold_left (fun a l -> a + f l) 0 ports in
      let lhs = sent + asum Link.wire_duplicated + Switch.flood_extra sw in
      let rhs =
        received + rx_lost + Switch.drops sw + asum Link.wire_dropped
        + asum Link.in_flight + backlog
      in
      if lhs <> rhs then
        failwith
          (Printf.sprintf "E23 %s: frame conservation violated (%d <> %d)" tag
             lhs rhs)
    in
    let merge_into dst h =
      List.iter
        (fun (lo, n) ->
          for _ = 1 to n do
            Histogram.add dst lo
          done)
        (Histogram.buckets h)
    in
    (* one fleet scenario at a given domain count; returns the canonical
       report plus a per-host counter/latency digest (both must be
       byte-identical across domain counts) and the aggregate numbers *)
    let scenario ?faults ~domains ~tag () =
      let stash = Array.make hosts None in
      let hists = Array.init hosts (fun _ -> Histogram.create ()) in
      let wire i hyp =
        stash.(i) <- Some (build_fabric ?faults ~hist:hists.(i) ~cell:i () hyp)
      in
      let cfg =
        P.config ~quantum:400_000L ~rounds:16 ~seed:23L ~hosts ~wire ~mk_vms ()
      in
      let r = P.run ~domains cfg in
      let digest = Buffer.create 512 in
      let fleet_hist = Histogram.create () in
      let totals = Array.make 6 0 (* sent recv drops wire_drop kicks replies *) in
      Array.iteri
        (fun i node ->
          let fabric = Option.get stash.(i) in
          let sw, ports = fabric in
          assert_conservation ~tag:(Printf.sprintf "%s host%d" tag i)
            node.P.hyp fabric;
          let vnets = host_vnets node.P.hyp in
          let sum f = List.fold_left (fun a v -> a + f v) 0 vnets in
          let h = hists.(i) in
          merge_into fleet_hist h;
          totals.(0) <- totals.(0) + sum Virtio_net.frames_sent;
          totals.(1) <- totals.(1) + sum Virtio_net.frames_received;
          totals.(2) <- totals.(2) + Switch.drops sw;
          totals.(3) <-
            totals.(3) + Array.fold_left (fun a l -> a + Link.wire_dropped l) 0 ports;
          totals.(4) <- totals.(4) + sum Virtio_net.kicks;
          totals.(5) <- totals.(5) + Histogram.count h;
          Printf.bprintf digest
            "host%d replies=%d p50=%.1f p95=%.1f p99=%.1f max=%d sent=%d \
             recv=%d sw_drops=%d wire_drop=%d kicks=%d\n"
            i (Histogram.count h) (Histogram.percentile h 50.0)
            (Histogram.percentile h 95.0) (Histogram.percentile h 99.0)
            (Histogram.max_value h) (sum Virtio_net.frames_sent)
            (sum Virtio_net.frames_received) (Switch.drops sw)
            (Array.fold_left (fun a l -> a + Link.wire_dropped l) 0 ports)
            (sum Virtio_net.kicks))
        r.P.fleet.P.nodes;
      (r.P.report, Buffer.contents digest, fleet_hist, totals)
    in
    (* every scenario runs at 1 and 4 domains; both artifacts must match *)
    let run_checked ?faults ~tag () =
      let report1, digest1, hist, totals = scenario ?faults ~domains:1 ~tag () in
      let report4, digest4, _, _ = scenario ?faults ~domains:4 ~tag () in
      if not (String.equal report1 report4) then
        failwith (Printf.sprintf "E23 %s: fleet report diverged at 4 domains" tag);
      if not (String.equal digest1 digest4) then
        failwith (Printf.sprintf "E23 %s: fabric digest diverged at 4 domains" tag);
      (digest1, hist, totals)
    in
    let digest_clean, hist_clean, totals_clean = run_checked ~tag:"clean" () in
    let faults =
      let f = Fault.create ~seed:23L () in
      Fault.set_prob f Fault.Drop 0.02;
      Fault.set_prob f Fault.Corrupt 0.01;
      Fault.set_prob f Fault.Delay 0.05;
      Fault.set_prob f Fault.Duplicate 0.01;
      f
    in
    let digest_faults, hist_faults, totals_faults =
      run_checked ~faults ~tag:"faults" ()
    in
    ignore digest_clean;
    ignore digest_faults;
    (* sanity gates *)
    let expected_replies = hosts * clients * requests in
    if Histogram.count hist_clean <> expected_replies then
      failwith
        (Printf.sprintf "E23 clean: %d replies, expected %d"
           (Histogram.count hist_clean) expected_replies);
    if Histogram.count hist_faults = 0 then
      failwith "E23 faults: no replies survived the fault plan";
    let p99_clean = Histogram.percentile hist_clean 99.0 in
    if p99_clean <= 0.0 || p99_clean < Histogram.percentile hist_clean 50.0 then
      failwith "E23: nonsensical clean p99";
    if totals_clean.(4) * 2 > totals_clean.(0) then
      failwith "E23: doorbell coalescing regressed (kicks > sent/2)";
    (* --- scenario 3: live-migrate a backend mid-benchmark --- *)
    let hist_mig = Histogram.create () in
    let host_a = Host.create ~frames:8192 () in
    let src = Hypervisor.create ~host:host_a () in
    let specs = mk_vms 0 in
    let vms =
      List.map
        (fun s ->
          let vm =
            Hypervisor.create_vm src ~name:s.P.vname
              ~mem_frames:s.P.setup.Images.frames ~entry:Images.entry ()
          in
          Images.load_vm vm s.P.setup;
          vm)
        specs
    in
    let ((sw_mig, ports_mig) as fabric_mig) =
      build_fabric ~hist:hist_mig ~cell:0 () src
    in
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
    let host_b = Host.create ~frames:8192 () in
    let dst = Hypervisor.create ~host:host_b () in
    Hypervisor.add_ticker dst (Switch.tick sw_mig);
    Hypervisor.add_event_source dst (fun () -> Switch.next_event sw_mig);
    let old_vnet = Option.get victim.Vm.vnet in
    let mig_link = Link.create () in
    let twin, mig_result =
      Migrate.stop_and_copy ~src ~dst ~vm:victim ~link:mig_link ()
    in
    let backlog = Virtio_net.drain_backlog old_vnet in
    let v = Vm.attach_vnet twin ~link:ports_mig.(1) ~endpoint:`A in
    Virtio_net.configure v ~tx_base:Abi.vnet_tx_ring ~tx_size:Abi.vnet_ring_size
      ~rx_base:Abi.vnet_rx_ring ~rx_size:Abi.vnet_ring_size;
    Virtio_net.seed_backlog v backlog;
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
    if not (Switch.conserved sw_mig) then
      failwith "E23 migration: switch conservation violated";
    let mig_vnets = host_vnets src @ host_vnets dst @ [ old_vnet ] in
    let sum f = List.fold_left (fun a v -> a + f v) 0 mig_vnets in
    let asum f = Array.fold_left (fun a l -> a + f l) 0 ports_mig in
    let lhs =
      sum Virtio_net.frames_sent + asum Link.wire_duplicated
      + Switch.flood_extra sw_mig
    in
    let rhs =
      sum Virtio_net.frames_received + sum Virtio_net.rx_dropped
      + sum Virtio_net.rx_overflow + sum Virtio_net.backlog_length
      + Switch.drops sw_mig + asum Link.wire_dropped + asum Link.in_flight
    in
    if lhs <> rhs then
      failwith
        (Printf.sprintf "E23 migration: frame conservation violated (%d <> %d)"
           lhs rhs);
    ignore fabric_mig;
    if Histogram.count hist_mig <> expected_replies / hosts * 1 then
      (* one cell's worth of clients: clients * requests replies *)
      failwith
        (Printf.sprintf "E23 migration: %d replies, expected %d"
           (Histogram.count hist_mig)
           (clients * requests));
    (* --- table + BENCH_net.json --- *)
    let t =
      Tablefmt.create
        [ ("scenario", Tablefmt.Left); ("replies", Tablefmt.Right);
          ("p50", Tablefmt.Right); ("p95", Tablefmt.Right);
          ("p99", Tablefmt.Right); ("max", Tablefmt.Right);
          ("drops", Tablefmt.Right); ("frames/kick", Tablefmt.Right) ]
    in
    let row name hist totals =
      Tablefmt.add_row t
        [ name; Tablefmt.cell_i (Histogram.count hist);
          Tablefmt.cell_f ~decimals:1 (Histogram.percentile hist 50.0);
          Tablefmt.cell_f ~decimals:1 (Histogram.percentile hist 95.0);
          Tablefmt.cell_f ~decimals:1 (Histogram.percentile hist 99.0);
          Tablefmt.cell_i (Histogram.max_value hist);
          Tablefmt.cell_i (totals.(2) + totals.(3));
          (if totals.(4) = 0 then "-"
           else Tablefmt.cell_f ~decimals:2 (float_of_int totals.(0) /. float_of_int totals.(4))) ]
    in
    row "clean" hist_clean totals_clean;
    row "link faults" hist_faults totals_faults;
    let mig_totals =
      let sum f = List.fold_left (fun a v -> a + f v) 0 mig_vnets in
      [| sum Virtio_net.frames_sent; sum Virtio_net.frames_received;
         Switch.drops sw_mig;
         Array.fold_left (fun a l -> a + Link.wire_dropped l) 0 ports_mig;
         sum Virtio_net.kicks; Histogram.count hist_mig |]
    in
    row "live migration" hist_mig mig_totals;
    Tablefmt.print t;
    let oc = open_out "BENCH_net.json" in
    let emit name hist totals last extra =
      Printf.fprintf oc
        "    {\"name\": \"net/%s\", \"replies\": %d, \"p50\": %.1f, \"p95\": \
         %.1f, \"p99\": %.1f, \"max\": %d,\n\
        \     \"sent\": %d, \"received\": %d, \"switch_drops\": %d, \
         \"wire_dropped\": %d, \"kicks\": %d%s}%s\n"
        name (Histogram.count hist) (Histogram.percentile hist 50.0)
        (Histogram.percentile hist 95.0) (Histogram.percentile hist 99.0)
        (Histogram.max_value hist) totals.(0) totals.(1) totals.(2) totals.(3)
        totals.(4) extra
        (if last then "" else ",")
    in
    Printf.fprintf oc
      "{\n  \"hosts\": %d, \"clients_per_host\": %d, \"backends_per_host\": \
       %d, \"requests_per_client\": %d,\n\
      \  \"domains_checked\": [1, 4], \"byte_identical\": true,\n\
      \  \"scenarios\": [\n"
      hosts clients backends requests;
    emit "clean" hist_clean totals_clean false "";
    emit "faults" hist_faults totals_faults false "";
    emit "migration" hist_mig mig_totals true
      (Printf.sprintf ", \"downtime_cycles\": %Ld, \"pages_sent\": %d"
         mig_result.Migrate.downtime_cycles mig_result.Migrate.pages_sent);
    output_string oc "  ]\n}\n";
    close_out oc;
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

let engine_bench () =
  if section "ENGINE" "Execution engines: interp vs block (equal simulated cycles)" then begin
    let scale l q = if !quick then q else l in
    let scale_i l q = if !quick then q else l in
    let cases =
      [
        ( "cpu-spin",
          Images.plan ~user:(Workloads.cpu_spin ~iters:(scale 1_000_000L 100_000L)) () );
        ( "branch-mix",
          Images.plan ~user:(Workloads.branch_mix ~iters:(scale 600_000L 60_000L)) () );
        ( "memcpy",
          Images.plan ~heap_pages:18
            ~user:
              (Workloads.stream_copy ~words:4096 ~iters:(scale_i 150 15))
            () );
        ( "null-syscall",
          Images.plan ~user:(Workloads.syscall_loop ~count:(scale 4_000L 400L)) () );
        ( "pgtable-churn",
          Images.plan
            ~user:(Workloads.pt_churn ~batch:16 ~count:(scale_i 1_500 150) ())
            () );
      ]
    in
    let time_engine ~engine setup =
      let reps = if !quick then 1 else 3 in
      let best = ref infinity in
      let cycles = ref 0L in
      let instret = ref 0L in
      let chains = ref 0 in
      let traces = ref 0 in
      for _ = 1 to reps do
        let t0 = Sys.time () in
        let vm, total = run_vm ~engine setup in
        let dt = Sys.time () -. t0 in
        cycles := total;
        instret :=
          Array.fold_left
            (fun acc v -> Int64.add acc v.Vcpu.state.Velum_machine.Cpu.instret)
            0L vm.Vm.vcpus;
        (match vm.Vm.engine.Velum_machine.Engine.cache with
        | Some c ->
            chains := Velum_machine.Trans_cache.chain_follows c;
            traces := Velum_machine.Trans_cache.trace_follows c
        | None ->
            chains := 0;
            traces := 0);
        if dt < !best then best := dt
      done;
      (!best, !cycles, !instret, !chains, !traces)
    in
    let t =
      Tablefmt.create
        [ ("workload", Tablefmt.Left); ("interp s", Tablefmt.Right);
          ("block s", Tablefmt.Right); ("speedup", Tablefmt.Right);
          ("interp MIPS", Tablefmt.Right); ("block MIPS", Tablefmt.Right);
          ("chains", Tablefmt.Right);
          ("traces", Tablefmt.Right); ("sim cycles", Tablefmt.Right) ]
    in
    let results =
      List.map
        (fun (name, setup) ->
          let si, ci, ri, _, _ = time_engine ~engine:Velum_machine.Engine.Interp setup in
          let sb, cb, rb, chains, traces =
            time_engine ~engine:Velum_machine.Engine.Block setup
          in
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
          Tablefmt.add_row t
            [ name; Tablefmt.cell_f ~decimals:3 si; Tablefmt.cell_f ~decimals:3 sb;
              Tablefmt.cell_f ~decimals:2 speedup; Tablefmt.cell_f ~decimals:1 interp_mips;
              Tablefmt.cell_f ~decimals:1 mips; string_of_int chains; string_of_int traces;
              Int64.to_string ci ];
          (name, si, sb, speedup, interp_mips, mips, chains, traces, ci))
        cases
    in
    Tablefmt.print t;
    let oc = open_out "BENCH_engine.json" in
    (* wall clock is machine-local: record the core count beside it *)
    Printf.fprintf oc "{\n  \"cores\": %d,\n  \"benchmarks\": [\n"
      (Domain.recommended_domain_count ());
    List.iteri
      (fun i (name, si, sb, speedup, interp_mips, mips, chains, traces, cycles) ->
        Printf.fprintf oc
          "    {\"name\": \"engine/%s\", \"interp_s\": %.6f, \"block_s\": %.6f, \
           \"speedup\": %.3f, \"interp_mips\": %.2f, \"block_mips\": %.2f, \
           \"chain_follows\": %d, \"trace_follows\": %d, \"sim_cycles\": %Ld}%s\n"
          name si sb speedup interp_mips mips chains traces cycles
          (if i = List.length results - 1 then "" else ","))
      results;
    output_string oc "  ]\n}\n";
    close_out oc;
    Printf.printf
      "\nSimulated cycles and retired instructions are identical by construction\n\
       (asserted above); the speedup is pure host wall clock.  'chains' counts\n\
       block->block dispatches that skipped the hashtable, 'traces' counts\n\
       dispatches absorbed by compiled superblock traces.  Written to\n\
       BENCH_engine.json.\n"
  end

(* ------------------------------------------------------------------ *)
(* Bechamel: wall-clock microbenchmarks of the simulator itself        *)
(* ------------------------------------------------------------------ *)

let bechamel_suite () =
  if section "BECH" "Bechamel: simulator hot-path wall-clock microbenchmarks" then begin
    let open Bechamel in
    let open Velum_isa in
    let open Velum_machine in
    (* instruction encode/decode round trip *)
    let insns =
      [ Instr.Alu (Instr.Add, 1, 2, 3); Instr.Load { rd = 4; base = 5; off = 16L; width = Instr.W64 };
        Instr.Branch (Instr.Blt, 1, 2, -64L); Instr.Csrr (3, Arch.Satp); Instr.Hcall ]
    in
    let t_codec =
      Test.make ~name:"instr-encode-decode"
        (Staged.stage (fun () ->
             List.iter (fun i -> ignore (Instr.decode (Instr.encode i))) insns))
    in
    (* TLB hit *)
    let tlb = Tlb.create ~size:64 in
    Tlb.insert tlb
      { Tlb.vpn = 5L; ppn = 9L; perms = { Velum_isa.Pte.r = true; w = true; x = false; u = true };
        dirty_ok = true; mmio = false; superpage = false };
    let t_tlb =
      Test.make ~name:"tlb-lookup-hit" (Staged.stage (fun () -> ignore (Tlb.lookup tlb ~vpn:5L)))
    in
    (* native guest execution: cycles per simulated chunk *)
    let setup = Images.plan ~user:(Workloads.cpu_spin ~iters:1_000_000_000L) () in
    let platform = Platform.create ~frames:(setup.Images.frames + 16) () in
    Images.load_native platform setup;
    ignore (Platform.run ~budget:300_000L platform);
    let ctx_state = platform.Platform.cpu in
    let t_interp =
      Test.make ~name:"interp-1k-cycles"
        (Staged.stage (fun () ->
             (* keep executing the spin loop; budget bounds the work *)
             ignore
               (Velum_machine.Cpu.run ctx_state
                  (let open Velum_machine in
                   {
                     Cpu.translate =
                       (fun ~access ~user va -> Mmu.translate platform.Platform.mmu ~access ~user va);
                     read_ram = (fun pa w -> Phys_mem.read platform.Platform.mem pa w);
                     write_ram = (fun pa w v -> Phys_mem.write platform.Platform.mem pa w v);
                     flush_tlb = (fun () -> Mmu.flush platform.Platform.mmu);
                     now = (fun () -> 0L);
                     ext_irq = (fun () -> false);
                     cost = platform.Platform.cost;
                     dtlb = None;
                     env =
                       Cpu.Native
                         {
                           mmio_read = (fun _ _ -> None);
                           mmio_write = (fun _ _ _ -> false);
                           port_in = (fun _ -> None);
                           port_out = (fun _ _ -> false);
                         };
                   })
                  ~budget:1000)))
    in
    (* frame hashing (page-sharing scan) *)
    let mem = Phys_mem.create ~frames:8 in
    let t_hash =
      Test.make ~name:"frame-hash-4k"
        (Staged.stage (fun () -> ignore (Phys_mem.frame_hash mem ~ppn:3L)))
    in
    let grouped =
      Test.make_grouped ~name:"velum" [ t_codec; t_tlb; t_interp; t_hash ]
    in
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
    let raw = Benchmark.all cfg instances grouped in
    let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
    let t =
      Tablefmt.create
        [ ("benchmark", Tablefmt.Left); ("ns/run", Tablefmt.Right);
          ("r²", Tablefmt.Right) ]
    in
    let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
    List.iter
      (fun (name, ols_result) ->
        let est =
          match Analyze.OLS.estimates ols_result with
          | Some (e :: _) -> Tablefmt.cell_f e
          | _ -> "-"
        in
        let r2 =
          match Analyze.OLS.r_square ols_result with
          | Some r -> Tablefmt.cell_f ~decimals:4 r
          | None -> "-"
        in
        Tablefmt.add_row t [ name; est; r2 ])
      (List.sort compare rows);
    Tablefmt.print t
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
  bechamel_suite ();
  Printf.printf "\nDone.\n"
