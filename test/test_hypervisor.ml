(* Unit tests for the hypervisor run loop using tiny "unikernel" guests:
   bare assembled programs that run in virtual supervisor mode with
   paging off, so each test controls exactly which exits occur. *)

open Velum_isa
open Velum_vmm
open Asm

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let make_hyp ?(frames = 2048) () = Hypervisor.create ~host:(Host.create ~frames ()) ()

(* Create a VM whose vCPU starts at gpa 0 executing [prog]. *)
let unikernel hyp ?(vcpu_count = 1) ?(weight = 256) ?(mem_frames = 16) name prog =
  let vm =
    Hypervisor.create_vm hyp ~name ~mem_frames ~vcpu_count ~weight ~entry:0L ()
  in
  let img = Asm.assemble ~origin:0L prog in
  Vm.load_image vm img;
  vm

let spin_forever = [ label "spin"; jmp "spin" ]
let halt_now = [ halt ]

let spin_n_then_halt n =
  [ li r2 (Int64.of_int n); label "spin"; addi r2 r2 (-1L); bne r2 r0 "spin"; halt ]

(* Arm the timer, enable it, and wait; the handler halts. *)
let wfi_until_timer ~delta =
  [
    la r2 "handler";
    csrw Arch.Stvec r2;
    csrr r3 Arch.Time;
    addi r3 r3 delta;
    csrw Arch.Stimecmp r3;
    li r2 1L;
    slli r4 r2 63L;
    ori r4 r4 1L (* GIE | timer *);
    csrw Arch.Sie r4;
    label "wait";
    wfi;
    jmp "wait";
    label "handler";
    halt;
  ]

let yield_forever = [ label "y"; li r1 Hypercall.hc_yield; hcall; jmp "y" ]

(* ---------------- outcomes ---------------- *)

let test_all_halted () =
  let hyp = make_hyp () in
  let _a = unikernel hyp "a" (spin_n_then_halt 100) in
  let _b = unikernel hyp "b" halt_now in
  checkb "all halted" true (Hypervisor.run hyp = Hypervisor.All_halted)

let test_out_of_budget () =
  let hyp = make_hyp () in
  let vm = unikernel hyp "spin" spin_forever in
  checkb "budget" true (Hypervisor.run hyp ~budget:1_000_000L = Hypervisor.Out_of_budget);
  checkb "clock advanced" true (Hypervisor.now hyp >= 1_000_000L);
  checkb "guest consumed it" true (Vm.guest_cycles vm > 500_000L)

let test_idle_deadlock () =
  let hyp = make_hyp () in
  (* wfi with interrupts fully masked: nothing can ever wake it *)
  let _vm = unikernel hyp "stuck" [ wfi; halt ] in
  checkb "deadlock" true (Hypervisor.run hyp = Hypervisor.Idle_deadlock)

let test_until_predicate () =
  let hyp = make_hyp () in
  let _vm = unikernel hyp "spin" spin_forever in
  let outcome = Hypervisor.run hyp ~until:(fun t -> Hypervisor.now t > 200_000L) in
  checkb "until" true (outcome = Hypervisor.Until_satisfied)

(* ---------------- timer wake / idle fast-forward ---------------- *)

let test_timer_wakes_blocked_vcpu () =
  let hyp = make_hyp () in
  let vm = unikernel hyp "sleeper" (wfi_until_timer ~delta:500_000L) in
  checkb "halted via handler" true (Hypervisor.run hyp = Hypervisor.All_halted);
  checkb "time advanced past deadline" true (Hypervisor.now hyp >= 500_000L);
  checkb "idle fast-forward happened" true (hyp.Hypervisor.idle_cycles > 100_000L);
  checkb "irq injected" true (Monitor.irq_injections vm.Vm.monitor >= 1)

let test_two_sleepers_wake_in_order () =
  let hyp = make_hyp () in
  let _early = unikernel hyp "early" (wfi_until_timer ~delta:100_000L) in
  let _late = unikernel hyp "late" (wfi_until_timer ~delta:900_000L) in
  checkb "both halt" true (Hypervisor.run hyp = Hypervisor.All_halted);
  checkb "clock past the later deadline" true (Hypervisor.now hyp >= 900_000L)

(* ---------------- scheduling ---------------- *)

let test_interleaving_fair () =
  let hyp = make_hyp () in
  let a = unikernel hyp "a" spin_forever in
  let b = unikernel hyp "b" spin_forever in
  ignore (Hypervisor.run hyp ~budget:10_000_000L);
  let ca = Int64.to_float (Vm.guest_cycles a) in
  let cb = Int64.to_float (Vm.guest_cycles b) in
  checkb "both ran" true (ca > 0.0 && cb > 0.0);
  checkb "roughly equal (equal weights)" true (ca /. cb > 0.8 && ca /. cb < 1.25);
  checkb "many decisions" true (hyp.Hypervisor.sched_decisions > 20)

let test_yield_reschedules () =
  let hyp = make_hyp () in
  let y = unikernel hyp "yielder" yield_forever in
  let _s = unikernel hyp "spinner" spin_forever in
  ignore (Hypervisor.run hyp ~budget:5_000_000L);
  let yields = Monitor.count y.Vm.monitor Monitor.E_hypercall in
  checkb "yield hypercalls happened" true (yields > 10);
  (* a yielder gives up its slice, so it burns far fewer guest cycles
     than a spinner with the same weight *)
  checkb "yielder used less cpu" true (Vm.guest_cycles y < Vm.guest_cycles (_s : Vm.t))

let test_weights_respected_between_vms () =
  let hyp = make_hyp () in
  let light = unikernel hyp ~weight:256 "light" spin_forever in
  let heavy = unikernel hyp ~weight:1024 "heavy" spin_forever in
  ignore (Hypervisor.run hyp ~budget:40_000_000L);
  let ratio =
    Int64.to_float (Vm.guest_cycles heavy) /. Int64.to_float (Vm.guest_cycles light)
  in
  checkb (Printf.sprintf "heavy/light ratio %.2f in [3,5]" ratio) true
    (ratio > 3.0 && ratio < 5.0)

let test_multi_vcpu_vm () =
  let hyp = make_hyp () in
  let vm = unikernel hyp ~vcpu_count:3 "smp" (spin_n_then_halt 1000) in
  checkb "all vcpus halt" true (Hypervisor.run hyp = Hypervisor.All_halted);
  Array.iter
    (fun vcpu -> checkb "vcpu ran" true (vcpu.Vcpu.guest_cycles > 0L))
    vm.Vm.vcpus

(* ---------------- external interrupts ---------------- *)

let test_uart_input_wakes_wfi () =
  let hyp = make_hyp () in
  (* enable external interrupts and wait; the handler halts *)
  let prog =
    [
      la r2 "handler";
      csrw Arch.Stvec r2;
      li r2 1L;
      slli r3 r2 63L;
      ori r3 r3 2L (* GIE | external *);
      csrw Arch.Sie r3;
      label "wait";
      wfi;
      jmp "wait";
      label "handler";
      halt;
    ]
  in
  let vm = unikernel hyp "reader" prog in
  checkb "no input: nothing wakes it" true (Hypervisor.run hyp = Hypervisor.Idle_deadlock);
  checkb "blocked in wfi" true (vm.Vm.vcpus.(0).Vcpu.runstate = Vcpu.Blocked);
  Velum_devices.Uart.feed_input vm.Vm.uart "x";
  checkb "input wakes it and the handler halts" true
    (Hypervisor.run hyp = Hypervisor.All_halted);
  checkb "irq injected" true (Monitor.irq_injections vm.Vm.monitor >= 1)

(* ---------------- CPU caps ---------------- *)

let test_cap_limits_solo_vm () =
  (* A 25%-capped spinner alone on the host gets ~25% of wall time even
     though the host is otherwise idle — caps are non-work-conserving. *)
  let hyp = make_hyp () in
  let vm = unikernel hyp "capped" spin_forever in
  vm.Vm.vcpus.(0).Vcpu.cap <- 25;
  ignore (Hypervisor.run hyp ~budget:30_000_000L);
  let share =
    Int64.to_float (Vm.guest_cycles vm) /. Int64.to_float (Hypervisor.now hyp)
  in
  checkb (Printf.sprintf "share %.3f near 0.25" share) true
    (share > 0.20 && share < 0.30);
  checkb "host idled the rest" true
    (Int64.to_float hyp.Hypervisor.idle_cycles
    > 0.5 *. Int64.to_float (Hypervisor.now hyp))

let test_cap_vs_uncapped () =
  let hyp = make_hyp () in
  let capped = unikernel hyp "capped" spin_forever in
  capped.Vm.vcpus.(0).Vcpu.cap <- 20;
  let free = unikernel hyp "free" spin_forever in
  ignore (Hypervisor.run hyp ~budget:30_000_000L);
  let c = Int64.to_float (Vm.guest_cycles capped) in
  let f = Int64.to_float (Vm.guest_cycles free) in
  let total = Int64.to_float (Hypervisor.now hyp) in
  checkb (Printf.sprintf "capped share %.3f <= 0.25" (c /. total)) true
    (c /. total <= 0.25);
  (* the uncapped VM absorbs the slack *)
  checkb (Printf.sprintf "free share %.3f >= 0.6" (f /. total)) true
    (f /. total >= 0.6)

(* ---------------- hypercall privilege and guest-driven balloon ------ *)

let test_hypercall_from_user_rejected () =
  let hyp = make_hyp () in
  (* drop to user mode, then hcall: the guest kernel must receive an
     illegal-instruction trap, whose handler stores scause and halts *)
  let prog =
    [
      la r2 "handler";
      csrw Arch.Stvec r2;
      la r2 "user";
      csrw Arch.Sepc r2;
      li r2 0L;
      csrw Arch.Sie r2;
      sret;
      label "user";
      li r1 Hypercall.hc_balloon_give;
      li r2 3L;
      hcall;
      label "spin";
      jmp "spin";
      label "handler";
      csrr r3 Arch.Scause;
      halt;
    ]
  in
  let vm = unikernel hyp "sneaky" prog in
  checkb "halts via handler" true (Hypervisor.run hyp = Hypervisor.All_halted);
  Alcotest.(check int64) "illegal instruction reflected"
    (Arch.cause_code Arch.Illegal_instruction)
    (Velum_machine.Cpu.get_reg vm.Vm.vcpus.(0).Vcpu.state 3);
  Alcotest.(check int) "no balloon happened" 0 vm.Vm.balloon_pages

let test_guest_driven_balloon () =
  let hyp = make_hyp () in
  (* a supervisor-mode guest balloons out its own gfns 8..11 *)
  let prog =
    [
      li r5 8L;
      label "loop";
      li r1 Hypercall.hc_balloon_give;
      mv r2 r5;
      hcall;
      addi r5 r5 1L;
      li r6 12L;
      blt r5 r6 "loop";
      halt;
    ]
  in
  let vm = unikernel hyp "balloonist" prog in
  let free0 = Frame_alloc.free_count (Hypervisor.host hyp).Host.alloc in
  checkb "halts" true (Hypervisor.run hyp = Hypervisor.All_halted);
  Alcotest.(check int) "4 pages surrendered" 4 vm.Vm.balloon_pages;
  Alcotest.(check int) "frames back to the host" (free0 + 4)
    (Frame_alloc.free_count (Hypervisor.host hyp).Host.alloc)

let test_console_write_huge_length () =
  let hyp = make_hyp () in
  (* lengths far beyond guest RAM must fail the call, not the VMM *)
  let write_len len dst =
    [ li r1 Hypercall.hc_console_write; li r2 0L; li r3 len; hcall; mv dst r1 ]
  in
  let prog = write_len 0x3FFF_FFFF_FFFF_FFFFL r4 @ write_len 0x100_0000_0000L r5 @ [ halt ] in
  let vm = unikernel hyp "writer" prog in
  checkb "halts" true (Hypervisor.run hyp = Hypervisor.All_halted);
  let reg n = Velum_machine.Cpu.get_reg vm.Vm.vcpus.(0).Vcpu.state n in
  Alcotest.(check int64) "2^62-1 bytes rejected" (-1L) (reg 4);
  Alcotest.(check int64) "1 TiB rejected" (-1L) (reg 5);
  Alcotest.(check string) "nothing written" "" (Vm.console_output vm)

(* ---------------- multiprocessor hosts ---------------- *)

let make_smp_hyp ~pcpus = Hypervisor.create ~host:(Host.create ~frames:2048 ()) ~pcpus ()

let makespan_for ~pcpus ~vms work =
  let hyp = make_smp_hyp ~pcpus in
  for i = 1 to vms do
    ignore (unikernel hyp (Printf.sprintf "w%d" i) (spin_n_then_halt work))
  done;
  checkb "finished" true (Hypervisor.run hyp = Hypervisor.All_halted);
  Int64.to_float (Hypervisor.now hyp)

let test_smp_speedup () =
  let one = makespan_for ~pcpus:1 ~vms:4 200_000 in
  let two = makespan_for ~pcpus:2 ~vms:4 200_000 in
  let four = makespan_for ~pcpus:4 ~vms:4 200_000 in
  let s2 = one /. two and s4 = one /. four in
  checkb (Printf.sprintf "2 pcpus speedup %.2f in [1.7,2.1]" s2) true
    (s2 > 1.7 && s2 <= 2.1);
  checkb (Printf.sprintf "4 pcpus speedup %.2f in [3.2,4.2]" s4) true
    (s4 > 3.2 && s4 <= 4.2)

let test_smp_single_vm_no_slowdown () =
  (* one runnable vCPU cannot use a second pCPU, but must not get slower *)
  let one = makespan_for ~pcpus:1 ~vms:1 300_000 in
  let two = makespan_for ~pcpus:2 ~vms:1 300_000 in
  checkb "same makespan" true (abs_float (one -. two) /. one < 0.05)

let test_smp_timer_wake () =
  let hyp = make_smp_hyp ~pcpus:2 in
  let _sleeper = unikernel hyp "sleeper" (wfi_until_timer ~delta:400_000L) in
  let _worker = unikernel hyp "worker" (spin_n_then_halt 10_000) in
  checkb "both halt" true (Hypervisor.run hyp = Hypervisor.All_halted);
  checkb "clock past the deadline" true (Hypervisor.now hyp >= 400_000L)

let test_smp_fairness () =
  let hyp = make_smp_hyp ~pcpus:2 in
  let vms = List.init 4 (fun i -> unikernel hyp (Printf.sprintf "f%d" i) spin_forever) in
  ignore (Hypervisor.run hyp ~budget:20_000_000L);
  let shares = List.map (fun vm -> Int64.to_float (Vm.guest_cycles vm)) vms in
  let jain = Velum_util.Stats.jain_fairness (Array.of_list shares) in
  checkb (Printf.sprintf "jain %.3f near 1" jain) true (jain > 0.95)

let test_smp_multi_vcpu_vm_parallelism () =
  (* a 2-vCPU VM finishes its two independent spins in roughly half the
     wall time on a 2-pCPU host *)
  let run pcpus =
    let hyp = make_smp_hyp ~pcpus in
    let _vm = unikernel hyp ~vcpu_count:2 "smp-vm" (spin_n_then_halt 200_000) in
    checkb "halts" true (Hypervisor.run hyp = Hypervisor.All_halted);
    Int64.to_float (Hypervisor.now hyp)
  in
  let one = run 1 and two = run 2 in
  checkb (Printf.sprintf "parallel speedup %.2f > 1.7" (one /. two)) true
    (one /. two > 1.7)

(* ---------------- VM lifecycle ---------------- *)

let test_remove_vm_frees_and_continues () =
  let hyp = make_hyp () in
  let free0 = Frame_alloc.free_count (Hypervisor.host hyp).Host.alloc in
  let doomed = unikernel hyp "doomed" spin_forever in
  let survivor = unikernel hyp "survivor" (spin_n_then_halt 5000) in
  ignore (Hypervisor.run hyp ~budget:1_000_000L);
  Hypervisor.remove_vm hyp doomed;
  checkb "gone from list" true (Hypervisor.find_vm hyp ~vm_id:doomed.Vm.id = None);
  checkb "survivor still listed" true
    (Hypervisor.find_vm hyp ~vm_id:survivor.Vm.id <> None);
  checkb "finishes" true (Hypervisor.run hyp = Hypervisor.All_halted);
  checki "frames returned (minus survivor's)"
    (free0 - Vm.mem_frames survivor)
    (Frame_alloc.free_count (Hypervisor.host hyp).Host.alloc)

(* Host RAM is backed per frame on first write.  A booted kernel backs a
   small share of a 64 MiB host, and a stop-and-copy migration backs no
   more destination frames than the source held.  Destroying the VM and
   creating it again zero-fills the freed frames in place: nothing is
   backed or given back.  The allocator hands freed frames out
   last-freed first, so the re-created VM maps its gfns to them in
   reverse and its boot backs new frames; the boot after that maps them
   as the first did and backs nothing new. *)
let test_host_ram_backed_on_write () =
  let open Velum_guests in
  let setup = Images.plan ~heap_pages:32 ~user:(Workloads.dirty_loop ~pages:8 ~delay:50) () in
  let resident hyp = Velum_machine.Phys_mem.resident_bytes (Hypervisor.host hyp).Host.mem in
  let run hyp vm =
    ignore (Hypervisor.run hyp ~budget:2_000_000L);
    vm
  in
  let boot hyp = run hyp (Images.create_vm hyp ~name:"k" setup) in
  let src = make_hyp ~frames:16384 () in
  let vm = boot src in
  let backed = resident src in
  checkb (Printf.sprintf "%d bytes backed of 64 MiB" backed) true
    (backed > 0 && backed * 16 <= 16384 * Arch.page_size);
  let dst = make_hyp ~frames:16384 () in
  let twin, r = Migrate.stop_and_copy ~src ~dst ~vm ~link:(Velum_devices.Link.create ()) () in
  checkb "migrated" false r.Migrate.aborted;
  checkb (Printf.sprintf "destination %d <= source %d bytes" (resident dst) backed) true
    (resident dst > 0 && resident dst <= backed);
  let before = Vm.guest_cycles twin in
  ignore (Hypervisor.run dst ~budget:500_000L);
  checkb "twin runs" true (Vm.guest_cycles twin > before);
  let hyp = make_hyp ~frames:16384 () in
  let vm = boot hyp in
  let backed = resident hyp in
  Hypervisor.remove_vm hyp vm;
  checki "destroying gives nothing back" backed (resident hyp);
  (* measured between creation and the image load, so booted by hand *)
  let vm =
    Hypervisor.create_vm hyp ~name:"k" ~mem_frames:setup.Images.frames ~entry:Images.entry ()
  in
  checki "re-creating zero-fills in place" backed (resident hyp);
  Images.load_vm vm setup;
  Hypervisor.remove_vm hyp (run hyp vm);
  let steady = resident hyp in
  Hypervisor.remove_vm hyp (boot hyp);
  checki "a third boot backs nothing new" steady (resident hyp)

let test_run_vm_isolates () =
  let hyp = make_hyp () in
  let target = unikernel hyp "target" spin_forever in
  let other = unikernel hyp "other" spin_forever in
  Hypervisor.run_vm hyp target ~cycles:500_000L;
  checkb "target ran" true (Vm.guest_cycles target > 0L);
  checkb "other did not" true (Vm.guest_cycles other = 0L);
  checkb "clock advanced exactly" true (Hypervisor.now hyp >= 500_000L)

let test_run_vm_halted_guest_advances_clock () =
  let hyp = make_hyp () in
  let vm = unikernel hyp "quick" halt_now in
  ignore (Hypervisor.run hyp);
  let before = Hypervisor.now hyp in
  Hypervisor.run_vm hyp vm ~cycles:100_000L;
  checkb "time still advances" true (Int64.sub (Hypervisor.now hyp) before >= 100_000L)

let test_vcpu_index () =
  let hyp = make_hyp () in
  let vm = unikernel hyp ~vcpu_count:2 "pair" halt_now in
  checki "first" 0 (Hypervisor.vcpu_index vm vm.Vm.vcpus.(0));
  checki "second" 1 (Hypervisor.vcpu_index vm vm.Vm.vcpus.(1));
  let other = unikernel hyp "other" halt_now in
  checkb "foreign vcpu rejected" true
    (try
       ignore (Hypervisor.vcpu_index vm other.Vm.vcpus.(0));
       false
     with Not_found -> true)

let test_until_immediate () =
  let hyp = make_hyp () in
  let _vm = unikernel hyp "spin" spin_forever in
  checkb "until true at entry" true
    (Hypervisor.run hyp ~until:(fun _ -> true) = Hypervisor.Until_satisfied);
  checkb "no time passed" true (Hypervisor.now hyp = 0L)

let test_empty_host_runs_nothing () =
  let hyp = make_hyp () in
  (* no VMs: not "all halted" (vacuous), just deadlocks immediately *)
  checkb "idle deadlock" true (Hypervisor.run hyp = Hypervisor.Idle_deadlock)

(* ---------------- accounting ---------------- *)

let test_cycle_accounting_consistent () =
  let hyp = make_hyp () in
  let _a = unikernel hyp "a" (spin_n_then_halt 20_000) in
  let _b = unikernel hyp "b" (spin_n_then_halt 20_000) in
  ignore (Hypervisor.run hyp);
  let guest = Hypervisor.guest_cycles hyp and vmm = Hypervisor.vmm_cycles hyp in
  let accounted = Int64.add guest (Int64.add vmm hyp.Hypervisor.idle_cycles) in
  (* clock = guest + vmm + idle + context switches; switches are the
     only remainder and are bounded by decisions * ctx_switch *)
  let slack = Int64.sub (Hypervisor.now hyp) accounted in
  checkb "remainder is context-switch overhead" true
    (slack >= 0L
    && slack
       <= Int64.of_int
            ((hyp.Hypervisor.sched_decisions + 1)
            * (Hypervisor.host hyp).Host.cost.Velum_machine.Cost_model.ctx_switch))

(* The exit ledger covers every VMM cycle exactly once: the per-kind
   exit cycles plus the interrupt injections add up to the VM's VMM
   cycles.  Binary translation charges a site's one-off translation as
   an exit of its own kind, so it must not also land in the kind of the
   exit that triggered it. *)
let test_exit_ledger_sums_to_vmm () =
  let open Velum_guests in
  let configs =
    [
      ("trap nested", Vm.Nested_paging, Vm.Trap_emulate, false);
      ("trap shadow", Vm.Shadow_paging, Vm.Trap_emulate, false);
      ("bt nested", Vm.Nested_paging, Vm.Binary_translation, false);
      ("bt shadow", Vm.Shadow_paging, Vm.Binary_translation, false);
      ("pv bt", Vm.Nested_paging, Vm.Binary_translation, true);
      ("pv shadow", Vm.Shadow_paging, Vm.Trap_emulate, true);
    ]
  in
  let workloads =
    [
      ("syscalls", Workloads.syscall_loop ~count:48L, 0);
      ("pt-churn", Workloads.pt_churn ~batch:16 ~count:24 (), 0);
      ("blk", Workloads.blk_read ~sector:0 ~count:4 ~reps:8, 8);
    ]
  in
  List.iter
    (fun (wname, user, heap) ->
      List.iter
        (fun (cname, paging, exec_mode, pv) ->
          let setup = Images.plan ~pv_console:pv ~pv_pt:pv ~heap_pages:heap ~user () in
          List.iter
            (fun engine ->
              let hyp, vm =
                Images.boot ~name:"ledger" ~paging
                  ~pv:(if pv then Vm.full_pv else Vm.no_pv)
                  ~exec_mode ~engine setup
              in
              checkb "halted" true (Hypervisor.run hyp = Hypervisor.All_halted);
              let m = vm.Vm.monitor in
              let exits =
                List.fold_left
                  (fun acc k -> Int64.add acc (Monitor.cycles m k))
                  0L Monitor.all_exit_kinds
              in
              let irqs =
                Monitor.irq_injections m
                * (Hypervisor.host hyp).Host.cost.Velum_machine.Cost_model.irq_inject
              in
              Alcotest.(check int64)
                (Printf.sprintf "%s, %s, %s" wname cname
                   (Velum_machine.Engine.kind_name engine))
                (Vm.vmm_cycles vm)
                (Int64.add exits (Int64.of_int irqs)))
            [ Velum_machine.Engine.Interp; Velum_machine.Engine.Block ])
        configs)
    workloads

(* A store to a guest page that cannot be brought back in (swapped out,
   host out of frames) reaches the guest as a store access fault, the
   cause its access kind gives, not as a load fault. *)
let test_unresolvable_store_faults_as_store () =
  let hyp = make_hyp ~frames:256 () in
  let host = Hypervisor.host hyp in
  let gfn = 8L in
  let vm =
    unikernel hyp "full"
      [
        la r1 "handler";
        csrw Arch.Stvec r1;
        li r2 (Int64.shift_left gfn Arch.page_shift);
        li r3 7L;
        sd r3 r2 0L;
        halt;
        label "handler";
        halt;
      ]
  in
  (match P2m.get vm.Vm.p2m gfn with
  | P2m.Present { hpa_ppn; _ } ->
      let slot = Host.swap_out host ~ppn:hpa_ppn in
      ignore (Frame_alloc.decr_ref host.Host.alloc hpa_ppn);
      P2m.set vm.Vm.p2m gfn (P2m.Swapped { slot });
      Vm.flush_all_tlbs vm
  | _ -> Alcotest.fail "page 8 must be present");
  while Frame_alloc.alloc host.Host.alloc <> None do () done;
  checkb "halted" true (Hypervisor.run hyp ~budget:1_000_000L = Hypervisor.All_halted);
  let s = vm.Vm.vcpus.(0).Vcpu.state in
  Alcotest.(check string) "cause"
    (Arch.cause_name Arch.Store_access_fault)
    (match Arch.cause_of_code (Velum_machine.Cpu.get_csr s Arch.Scause) with
    | Some c -> Arch.cause_name c
    | None -> "none");
  checki "one reflected trap" 1 (Monitor.count vm.Vm.monitor Monitor.E_guest_trap)

(* ---------------- progress watchdog ---------------- *)

(* A VM whose vCPU is blocked (not halted) retires nothing: the watchdog
   must fire and, under [Wd_kill], halt it so the host drains cleanly. *)
let test_watchdog_kills_stuck_vm () =
  let hyp = make_hyp () in
  let _spin = unikernel hyp "spin" (spin_n_then_halt 200_000) in
  let stuck = unikernel hyp "stuck" spin_forever in
  Array.iter Vcpu.block stuck.Vm.vcpus;
  Hypervisor.set_watchdog hyp ~budget:50_000L ~policy:Hypervisor.Wd_kill;
  checkb "host drains after the kill" true
    (Hypervisor.run hyp = Hypervisor.All_halted);
  checkb "watchdog fired" true (Hypervisor.watchdog_fired hyp >= 1);
  checkb "stuck vm halted" true (Vm.halted stuck);
  checki "fires counted in the monitor" (Hypervisor.watchdog_fired hyp)
    (Monitor.count stuck.Vm.monitor Monitor.E_watchdog)

let test_watchdog_quiet_on_progress () =
  let hyp = make_hyp () in
  let _spin = unikernel hyp "spin" (spin_n_then_halt 200_000) in
  Hypervisor.set_watchdog hyp ~budget:10_000L ~policy:Hypervisor.Wd_notify;
  checkb "halted" true (Hypervisor.run hyp = Hypervisor.All_halted);
  checki "a progressing vm never trips it" 0 (Hypervisor.watchdog_fired hyp)

let () =
  Alcotest.run "hypervisor"
    [
      ( "outcomes",
        [
          Alcotest.test_case "all halted" `Quick test_all_halted;
          Alcotest.test_case "out of budget" `Quick test_out_of_budget;
          Alcotest.test_case "idle deadlock" `Quick test_idle_deadlock;
          Alcotest.test_case "until predicate" `Quick test_until_predicate;
        ] );
      ( "timer",
        [
          Alcotest.test_case "timer wakes blocked vcpu" `Quick test_timer_wakes_blocked_vcpu;
          Alcotest.test_case "two sleepers" `Quick test_two_sleepers_wake_in_order;
        ] );
      ( "scheduling",
        [
          Alcotest.test_case "interleaving fair" `Quick test_interleaving_fair;
          Alcotest.test_case "yield reschedules" `Quick test_yield_reschedules;
          Alcotest.test_case "weights between vms" `Quick test_weights_respected_between_vms;
          Alcotest.test_case "multi-vcpu vm" `Quick test_multi_vcpu_vm;
        ] );
      ( "external irq",
        [ Alcotest.test_case "uart input wakes wfi" `Quick test_uart_input_wakes_wfi ] );
      ( "caps",
        [
          Alcotest.test_case "cap limits a solo vm" `Quick test_cap_limits_solo_vm;
          Alcotest.test_case "cap vs uncapped" `Quick test_cap_vs_uncapped;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "kills a stuck vm" `Quick test_watchdog_kills_stuck_vm;
          Alcotest.test_case "quiet on progress" `Quick test_watchdog_quiet_on_progress;
        ] );
      ( "privilege",
        [
          Alcotest.test_case "hypercall from user rejected" `Quick
            test_hypercall_from_user_rejected;
          Alcotest.test_case "guest-driven balloon" `Quick test_guest_driven_balloon;
          Alcotest.test_case "console write rejects huge length" `Quick
            test_console_write_huge_length;
          Alcotest.test_case "unresolvable store faults as a store" `Quick
            test_unresolvable_store_faults_as_store;
        ] );
      ( "smp",
        [
          Alcotest.test_case "speedup" `Quick test_smp_speedup;
          Alcotest.test_case "single vm no slowdown" `Quick test_smp_single_vm_no_slowdown;
          Alcotest.test_case "timer wake" `Quick test_smp_timer_wake;
          Alcotest.test_case "fairness" `Quick test_smp_fairness;
          Alcotest.test_case "multi-vcpu parallelism" `Quick
            test_smp_multi_vcpu_vm_parallelism;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "remove vm" `Quick test_remove_vm_frees_and_continues;
          Alcotest.test_case "host ram backed on write" `Quick test_host_ram_backed_on_write;
          Alcotest.test_case "run_vm isolates" `Quick test_run_vm_isolates;
          Alcotest.test_case "run_vm on halted vm" `Quick test_run_vm_halted_guest_advances_clock;
          Alcotest.test_case "vcpu index" `Quick test_vcpu_index;
        ] );
      ( "edges",
        [
          Alcotest.test_case "until immediate" `Quick test_until_immediate;
          Alcotest.test_case "empty host" `Quick test_empty_host_runs_nothing;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "cycles add up" `Quick test_cycle_accounting_consistent;
          Alcotest.test_case "exit ledger sums to vmm cycles" `Quick
            test_exit_ledger_sums_to_vmm;
        ] );
    ]
