(* Memory overcommit: reclaim a quarter of a guest's memory while it
   runs, first with the balloon driver (the guest gives up pages it is
   not using), then with hypervisor swapping (the host picks victims
   blindly).  Same pages reclaimed — very different guest performance.

     dune exec examples/overcommit.exe

   It exits non-zero unless ballooning slows the guest less than
   swapping does. *)

open Velum_vmm
open Velum_guests

let heap = 128
let wss = 48
let reclaim_pages = 64

let run_case label reclaim =
  let setup =
    Images.plan ~heap_pages:heap ~user:(Workloads.memwalk ~pages:wss ~iters:20000 ~write:true) ()
  in
  let hyp, vm = Images.boot ~name:"victim" setup in
  ignore (Hypervisor.run hyp ~budget:2_000_000L);
  let reclaimed = reclaim vm in
  let t0 = Int64.add (Vm.guest_cycles vm) (Vm.vmm_cycles vm) in
  (match Hypervisor.run hyp with
  | Hypervisor.All_halted -> ()
  | _ -> failwith "guest did not finish");
  let t1 = Int64.add (Vm.guest_cycles vm) (Vm.vmm_cycles vm) in
  let runtime = Int64.to_float (Int64.sub t1 t0) in
  Printf.printf "%-34s reclaimed %3d pages, runtime %10.0f cycles, %4d swap-ins\n"
    label reclaimed runtime
    (Monitor.count vm.Vm.monitor Monitor.E_swap_in);
  runtime

let () =
  Printf.printf "guest: %d-page heap, %d-page working set; reclaiming %d pages\n\n"
    heap wss reclaim_pages;
  let base = run_case "no reclaim (baseline)" (fun _ -> 0) in
  let balloon =
    run_case "balloon (guest picks free pages)" (fun vm ->
        (* the guest's balloon driver surrenders the heap tail it never
           touches — here driven host-side for brevity; guests do the
           same thing with the balloon hypercalls *)
        let heap_gfn = Int64.to_int (Int64.shift_right_logical Abi.heap_base 12) in
        let n = ref 0 in
        for p = heap - reclaim_pages to heap - 1 do
          if Vm.balloon_out vm (Int64.of_int (heap_gfn + p)) then incr n
        done;
        !n)
  in
  let swap =
    run_case "hypervisor swap (blind victims)" (fun vm ->
        Mem_mgr.evict vm ~n:reclaim_pages)
  in
  Printf.printf "\nslowdown vs baseline: balloon %.2fx, hypervisor swap %.2fx\n"
    (balloon /. base) (swap /. base);
  if not (balloon < swap) then failwith "balloon is not cheaper than hypervisor swap";
  Printf.printf
    "The balloon is nearly free because only the guest knows which pages are\n\
     cold; the hypervisor's blind eviction drags hot pages through swap.\n"
