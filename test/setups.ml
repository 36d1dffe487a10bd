(* Fixtures shared by the test suites. *)

open Velum_guests

(* Every guest workload at a small scale: (name, setup). *)
let workload_setups () =
  List.map
    (fun (name, user, heap) -> (name, Images.plan ~heap_pages:heap ~user ()))
    [
      ("hello", Workloads.hello (), 0);
      ("cpu-spin", Workloads.cpu_spin ~iters:30_000L, 0);
      ("syscalls", Workloads.syscall_loop ~count:48L, 0);
      ("memwalk", Workloads.memwalk ~pages:24 ~iters:8 ~write:true, 24);
      (* 96 pages overflow the 64-entry TLB: capacity evictions on every
         pass, so micro-TLB entries, fetch and data, outlive evictions
         of other pages only by their per-slot certificates *)
      ("memwalk-96", Workloads.memwalk ~pages:96 ~iters:4 ~write:true, 96);
      ("pt-churn", Workloads.pt_churn ~batch:16 ~count:24 (), 0);
      ("blk", Workloads.blk_read ~sector:0 ~count:4 ~reps:8, 8);
      ("vblk", Workloads.vblk_read ~sector:0 ~count:4 ~reps:8, 8);
    ]

(* Program a virtio-net adapter's two rings as a guest driver does,
   through its registers. *)
let vnet_rings v ~tx_base ~tx_size ~rx_base ~rx_size =
  let dev = Velum_devices.Virtio_net.device v in
  List.iter
    (fun (reg, x) -> dev.Velum_machine.Bus.write reg Velum_isa.Instr.W64 x)
    Velum_devices.Virtio_net.
      [
        (reg_tx_ring_base, tx_base); (reg_tx_ring_size, tx_size);
        (reg_rx_ring_base, rx_base); (reg_rx_ring_size, rx_size);
      ]
