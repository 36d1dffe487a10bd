(* Fault injection and recovery: the link fault plan is exact and
   deterministic (qcheck over random seeds and probabilities), lossy
   migration converges to a state bit-identical to the fault-free run,
   a dead link or a destination short of frames aborts with a clean
   rollback, both transports' results are pinned, and replication fails
   over to the last *completed* checkpoint whatever cycle the link dies
   at. *)

open Velum_machine
open Velum_devices
open Velum_vmm
open Velum_guests

module Fault = Velum_util.Fault

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)
let check64 = Alcotest.(check int64)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

(* --- link: conservation and FIFO order with faults off --- *)

(* Random payloads on a random send schedule (including back-to-back
   sends at the same cycle): with no fault plan the link must deliver
   every frame exactly once, unmodified, in send order. *)
let link_conservation_prop =
  QCheck2.Test.make ~count:60 ~name:"link conserves frames in order (faults off)"
    QCheck2.Gen.(
      list_size (int_range 1 60)
        (pair (string_size ~gen:printable (int_range 1 40)) (int_range 0 3000)))
    (fun frames ->
      let link = Link.create () in
      let now = ref 0L in
      let last_arrival = ref 0L in
      List.iter
        (fun (payload, gap) ->
          now := Int64.add !now (Int64.of_int gap);
          last_arrival := Link.send link ~from:`A ~now:!now ~payload)
        frames;
      let got = Link.poll link ~at:`B ~now:(Int64.add !last_arrival 1L) in
      got = List.map fst frames && Link.in_flight link = 0)

(* --- link: losses and corruptions match the injected counters --- *)

(* Distinct repeated-byte payloads: a single bit flip can never turn one
   valid payload into another, so delivered frames classify exactly as
   intact or corrupted.  Deliveries must then satisfy
     delivered = sent - injected(Drop)
     corrupted = injected(Corrupt)
   for any seed and any drop/corrupt probabilities. *)
let link_loss_counts_prop =
  QCheck2.Test.make ~count:60 ~name:"deliveries = sent - drops; corruptions exact"
    QCheck2.Gen.(triple (int_range 0 1000) (int_range 0 30) (int_range 0 30))
    (fun (seed, drop_pct, corrupt_pct) ->
      let n = 120 in
      let link = Link.create () in
      let f = Fault.create ~seed:(Int64.of_int seed) () in
      Fault.set_prob f Fault.Drop (float_of_int drop_pct /. 100.0);
      Fault.set_prob f Fault.Corrupt (float_of_int corrupt_pct /. 100.0);
      Link.set_faults link f;
      let sent = Hashtbl.create 64 in
      for i = 0 to n - 1 do
        let payload = String.make 8 (Char.chr i) in
        Hashtbl.replace sent payload ();
        ignore (Link.send link ~from:`A ~now:(Int64.of_int (i * 5000)) ~payload)
      done;
      let got = Link.poll link ~at:`B ~now:Int64.max_int in
      let intact, corrupted =
        List.fold_left
          (fun (ok, bad) p ->
            if Hashtbl.mem sent p then (ok + 1, bad) else (ok, bad + 1))
          (0, 0) got
      in
      List.length got = n - Fault.injected f Fault.Drop
      && corrupted = Fault.injected f Fault.Corrupt
      && intact = n - Fault.injected f Fault.Drop - Fault.injected f Fault.Corrupt)

let test_partition_window () =
  let link = Link.create () in
  let f = Fault.create () in
  Fault.add_window f Fault.Partition ~lo:5_000L ~hi:10_000L;
  Link.set_faults link f;
  ignore (Link.send link ~from:`A ~now:6_000L ~payload:"swallowed");
  let arr = Link.send link ~from:`A ~now:20_000L ~payload:"through" in
  let got = Link.poll link ~at:`B ~now:arr in
  checkb "only the post-window frame arrives" true (got = [ "through" ]);
  checki "partition hit counted" 1 (Fault.injected f Fault.Partition)

let test_fault_parse () =
  (match Fault.parse "seed=7,drop=0.1,blk=0.05,partition@100-200" with
  | Error e -> Alcotest.fail e
  | Ok f ->
      checkb "active" true (Fault.active f);
      checkb "drop prob" true (Fault.prob f Fault.Drop = 0.1);
      checkb "blk prob" true (Fault.prob f Fault.Blk_transient = 0.05);
      checkb "in window" true (Fault.fire f Fault.Partition ~now:150L);
      checkb "out of window" false (Fault.fire f Fault.Partition ~now:250L));
  match Fault.parse "bogus=1" with
  | Ok _ -> Alcotest.fail "bogus site accepted"
  | Error _ -> ()

(* --- migration over a lossy link --- *)

let vm_instret vm =
  Array.fold_left
    (fun acc (v : Vcpu.t) -> Int64.add acc v.Vcpu.state.Cpu.instret)
    0L vm.Vm.vcpus

let mig_setup () =
  Images.plan ~heap_pages:64
    ~user:(Workloads.memwalk ~pages:32 ~iters:5000 ~write:true) ()

(* Boot the guest partway on a fresh source host. *)
let boot_source () =
  let setup = mig_setup () in
  let src = Hypervisor.create ~host:(Host.create ~frames:(setup.Images.frames + 512) ()) () in
  let vm = Images.create_vm src ~name:"m" setup in
  ignore (Hypervisor.run src ~budget:1_000_000L);
  (src, vm)

let roomy_host () = Host.create ~frames:((mig_setup ()).Images.frames + 512) ()

(* Boot the guest partway, then migrate under [faults] and run whichever
   copy survives to completion.  Returns the final (output, instret)
   plus the migration result. *)
let migrate_under faults =
  let src, vm = boot_source () in
  let host_b = roomy_host () in
  let dst = Hypervisor.create ~host:host_b () in
  let link = Link.create () in
  Link.set_faults link faults;
  let used_before = Frame_alloc.used_count host_b.Host.alloc in
  let twin, r = Migrate.precopy ~src ~dst ~vm ~link ~max_rounds:12 ~stop_threshold:8 () in
  let hyp = if r.Migrate.aborted then src else dst in
  (match Hypervisor.run hyp with
  | Hypervisor.All_halted -> ()
  | _ -> Alcotest.fail "guest did not halt after migration");
  let output =
    if r.Migrate.aborted then Vm.console_output twin
    else Vm.console_output vm ^ Vm.console_output twin
  in
  let dst_reclaimed = Frame_alloc.used_count host_b.Host.alloc = used_before in
  (r, output, vm_instret twin, dst_reclaimed)

(* Reference: the same guest run to completion with no migration. *)
let plain_run () =
  let setup = mig_setup () in
  let hyp = Hypervisor.create ~host:(Host.create ~frames:(setup.Images.frames + 512) ()) () in
  let vm = Images.create_vm hyp ~name:"m" setup in
  (match Hypervisor.run hyp with
  | Hypervisor.All_halted -> ()
  | _ -> Alcotest.fail "plain run did not halt");
  (Vm.console_output vm, vm_instret vm)

let test_lossy_migration_lockstep () =
  let base_out, base_instret = plain_run () in
  let f = Fault.create ~seed:42L () in
  Fault.set_prob f Fault.Drop 0.05;
  let r, out, instret, _ = migrate_under f in
  checkb "completed" false r.Migrate.aborted;
  checkb "loss forced retransmits" true (r.Migrate.retransmits > 0);
  checks "output identical to fault-free run" base_out out;
  check64 "instret identical to fault-free run" base_instret instret

let test_dead_link_rollback () =
  let base_out, base_instret = plain_run () in
  let f = Fault.create ~seed:42L () in
  Fault.add_window f Fault.Partition ~lo:0L ~hi:Int64.max_int;
  let r, out, instret, dst_reclaimed = migrate_under f in
  checkb "aborted" true r.Migrate.aborted;
  checkb "bounded retries" true (r.Migrate.retransmits > 0);
  checkb "destination frames reclaimed" true dst_reclaimed;
  checks "source resumed and finished identically" base_out out;
  check64 "instret identical" base_instret instret

(* Same seed, same loss schedule, byte-identical migration — twice, for
   random seeds. *)
let migration_deterministic_prop =
  QCheck2.Test.make ~count:3 ~name:"fixed-seed lossy migration is deterministic"
    QCheck2.Gen.(int_range 0 999)
    (fun seed ->
      let run () =
        let f = Fault.create ~seed:(Int64.of_int seed) () in
        Fault.set_prob f Fault.Drop 0.08;
        let r, out, instret, _ = migrate_under f in
        ( r.Migrate.total_cycles, r.Migrate.downtime_cycles, r.Migrate.pages_sent,
          r.Migrate.rounds, r.Migrate.retransmits, r.Migrate.aborted, out, instret )
      in
      run () = run ())

let precopy ~src ~dst ~vm ~link =
  Migrate.precopy ~src ~dst ~vm ~link ~max_rounds:12 ~stop_threshold:8 ()

let stop_and_copy ~src ~dst ~vm ~link = Migrate.stop_and_copy ~src ~dst ~vm ~link ()

(* A destination with free frames for only half the guest's pages must
   abort before copying anything: the source resumes and finishes
   identically, and the destination gets every frame back. *)
let test_short_destination_aborts () =
  let base_out, base_instret = plain_run () in
  List.iter
    (fun (name, migrate) ->
      let src, vm = boot_source () in
      let present = List.length (Migrate.present_gfns vm) in
      (* 16 frames are the allocator's reserve *)
      let host_b = Host.create ~frames:(16 + (present / 2)) () in
      let dst = Hypervisor.create ~host:host_b () in
      checkb (name ^ ": destination is short") true
        (Frame_alloc.free_count host_b.Host.alloc < present);
      let used_before = Frame_alloc.used_count host_b.Host.alloc in
      let survivor, r = migrate ~src ~dst ~vm ~link:(Link.create ()) in
      checkb (name ^ ": aborted") true r.Migrate.aborted;
      checkb (name ^ ": source survives") true (survivor == vm);
      checki (name ^ ": destination frames reclaimed") used_before
        (Frame_alloc.used_count host_b.Host.alloc);
      (match Hypervisor.run src with
      | Hypervisor.All_halted -> ()
      | _ -> Alcotest.fail "source did not halt after the rollback");
      checks (name ^ ": source output") base_out (Vm.console_output vm);
      check64 (name ^ ": source instret") base_instret (vm_instret vm))
    [ ("stop-and-copy", stop_and_copy); ("pre-copy", precopy) ]

(* Seed 42 with a frame drop probability. *)
let lossy drop =
  let f = Fault.create ~seed:42L () in
  Fault.set_prob f Fault.Drop drop;
  f

let show_result (r : Migrate.result) =
  Printf.sprintf
    "total=%Ld down=%Ld pages=%d bytes=%d rounds=%d remote=%d retx=%d aborted=%b"
    r.Migrate.total_cycles r.Migrate.downtime_cycles r.Migrate.pages_sent
    r.Migrate.bytes_sent r.Migrate.rounds r.Migrate.remote_faults
    r.Migrate.retransmits r.Migrate.aborted

let show_stats (st : Replicate.stats) =
  Printf.sprintf
    "epochs=%d pages=%d initial=%d sync=%Ld bytes=%d paused=%Ld run=%Ld retx=%d \
     failed=%b"
    st.Replicate.epochs_completed st.Replicate.pages_sent st.Replicate.initial_pages
    st.Replicate.initial_sync_cycles st.Replicate.bytes_sent
    st.Replicate.paused_cycles st.Replicate.run_cycles st.Replicate.retransmits
    st.Replicate.link_failed

let migrate_once migrate faults =
  let src, vm = boot_source () in
  let dst = Hypervisor.create ~host:(roomy_host ()) () in
  let link = Link.create () in
  Link.set_faults link faults;
  show_result (snd (migrate ~src ~dst ~vm ~link))

(* --- replication: failover lands on the last completed checkpoint --- *)

let rep_setup () =
  Images.plan ~heap_pages:32 ~user:(Workloads.dirty_loop ~pages:16 ~delay:50) ()

(* A primary booted partway and its backup, on two roomy hosts. *)
let boot_primary () =
  let setup = rep_setup () in
  let host () = Host.create ~frames:(setup.Images.frames + 512) () in
  let primary = Hypervisor.create ~host:(host ()) () in
  let backup = Hypervisor.create ~host:(host ()) () in
  let vm = Images.create_vm primary ~name:"ha" setup in
  ignore (Hypervisor.run primary ~budget:1_000_000L);
  (primary, backup, vm)

let protect_under faults =
  let primary, backup, vm = boot_primary () in
  let link = Link.create () in
  Link.set_faults link faults;
  snd
    (Replicate.protect ~primary ~backup ~vm ~link ~epoch_cycles:150_000L ~epochs:6 ())

(* [bytes_sent] is read off the wire, so retransmitted frames count. *)
let test_replication_bytes_on_the_wire () =
  let st = protect_under (lossy 0.05) in
  checkb "loss forced retransmits" true (st.Replicate.retransmits > 0);
  let clean_bytes =
    ((st.Replicate.pages_sent + st.Replicate.initial_pages) * Migrate.page_wire_bytes)
    + ((st.Replicate.epochs_completed + 1) * Migrate.vcpu_state_bytes)
  in
  checkb "retransmitted frames counted" true (st.Replicate.bytes_sent > clean_bytes)

(* Both transports' results, pinned: any change to either cost model
   shows here.  The lossy replication's [bytes] includes its one
   retransmitted page frame. *)
let test_pinned_results () =
  let clean () = Fault.none () and drop5 () = lossy 0.05 in
  let stop_z ~src ~dst ~vm ~link =
    Migrate.stop_and_copy ~compress:true ~src ~dst ~vm ~link ()
  in
  List.iter
    (fun (name, got, want) -> checks name want (got ()))
    [
      ( "stop-and-copy, clean",
        (fun () -> migrate_once stop_and_copy (clean ())),
        "total=1923946 down=1923946 pages=584 bytes=2402432 rounds=1 remote=0 \
         retx=0 aborted=false" );
      ( "stop-and-copy compressed, clean",
        (fun () -> migrate_once stop_z (clean ())),
        "total=148119 down=148119 pages=584 bytes=182648 rounds=1 remote=0 retx=0 \
         aborted=false" );
      ( "pre-copy, clean",
        (fun () -> migrate_once precopy (clean ())),
        "total=2039794 down=2820 pages=618 bytes=2542240 rounds=2 remote=0 retx=0 \
         aborted=false" );
      ( "stop-and-copy, 5% drop",
        (fun () -> migrate_once stop_and_copy (drop5 ())),
        "total=4553330 down=4553330 pages=584 bytes=2546352 rounds=1 remote=0 \
         retx=35 aborted=false" );
      ( "stop-and-copy compressed, 5% drop",
        (fun () -> migrate_once stop_z (drop5 ())),
        "total=4553330 down=4553330 pages=584 bytes=2546352 rounds=1 remote=0 \
         retx=35 aborted=false" );
      ( "pre-copy, 5% drop",
        (fun () -> migrate_once precopy (drop5 ())),
        "total=4852460 down=10640 pages=618 bytes=2707744 rounds=2 remote=0 \
         retx=41 aborted=false" );
      ( "replication, clean",
        (fun () -> show_stats (protect_under (clean ()))),
        "epochs=6 pages=96 initial=552 sync=1818679 bytes=2671744 paused=332718 \
         run=900000 retx=0 failed=false" );
      ( "replication, 2% drop",
        (fun () -> show_stats (protect_under (lossy 0.02))),
        "epochs=6 pages=96 initial=552 sync=1818679 bytes=2675856 paused=737050 \
         run=900000 retx=1 failed=false" );
    ]


let snap vm =
  Array.map
    (fun (v : Vcpu.t) -> (Cpu.pc v.Vcpu.state, v.Vcpu.state.Cpu.instret))
    vm.Vm.vcpus

(* Kill the link at a random session cycle (plus background frame loss).
   However many checkpoints survive, the backup must resume exactly at
   the last one that committed — never a torn or partial epoch. *)
let replication_failover_prop =
  QCheck2.Test.make ~count:6 ~name:"failover resumes at last completed checkpoint"
    QCheck2.Gen.(int_range 0 3_000_000)
    (fun death_cycle ->
      let primary, backup, vm = boot_primary () in
      let link = Link.create () in
      let f = Fault.create ~seed:42L () in
      Fault.set_prob f Fault.Drop 0.02;
      Fault.add_window f Fault.Partition ~lo:(Int64.of_int death_cycle)
        ~hi:Int64.max_int;
      Link.set_faults link f;
      let session = Replicate.start ~primary ~backup ~vm ~link () in
      let committed = ref (snap vm) (* the initial full sync *) in
      (try
         for _ = 1 to 8 do
           match Replicate.epoch session ~run_cycles:150_000L with
           | Replicate.Committed -> committed := snap vm
           | Replicate.Link_failed -> raise Exit
         done
       with Exit -> ());
      let twin = Replicate.failover session in
      snap twin = !committed)

let () =
  Alcotest.run "faults"
    [
      ( "link",
        Alcotest.test_case "partition window" `Quick test_partition_window
        :: Alcotest.test_case "spec parsing" `Quick test_fault_parse
        :: qsuite [ link_conservation_prop; link_loss_counts_prop ] );
      ( "migration",
        Alcotest.test_case "lossy pre-copy is lockstep-identical" `Quick
          test_lossy_migration_lockstep
        :: Alcotest.test_case "dead link aborts and rolls back" `Quick
             test_dead_link_rollback
        :: Alcotest.test_case "short destination aborts" `Quick
             test_short_destination_aborts
        :: Alcotest.test_case "both transports pinned" `Quick test_pinned_results
        :: qsuite [ migration_deterministic_prop ] );
      ( "replication",
        Alcotest.test_case "bytes_sent counts retransmits" `Quick
          test_replication_bytes_on_the_wire
        :: qsuite [ replication_failover_prop ] );
    ]
