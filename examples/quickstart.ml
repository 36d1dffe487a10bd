(* Quickstart: boot one guest three ways — bare metal, trap-and-emulate
   with shadow paging, and with nested paging — and compare what the
   hypervisor had to do.

     dune exec examples/quickstart.exe

   It exits non-zero unless the three console outputs are equal. *)

open Velum_devices
open Velum_vmm
open Velum_guests

let () =
  (* A guest = a kernel configuration + a user workload, assembled to a
     bootable image pair. *)
  let setup = Images.plan ~user:(Workloads.hello ()) () in

  (* 1. Bare metal: the baseline every experiment compares against. *)
  let platform = Images.boot_native setup in
  (match Platform.run platform with
  | Platform.Halted -> ()
  | _ -> failwith "native boot failed");
  let native = Platform.console_output platform in
  Printf.printf "--- native ---\n%s" native;
  Printf.printf "cycles: %Ld, instructions: %Ld\n\n" (Platform.cycles platform)
    (Platform.instructions_retired platform);

  (* 2 & 3. The same image under the hypervisor, in each paging mode:
     Images.boot sizes a host for the guest, creates the VM with the
     frames and entry point the image pair needs, and loads it. *)
  let boot paging label =
    let hyp, vm =
      Images.boot ~host_frames:(setup.Images.frames + 512) ~name:"demo" ~paging setup
    in
    (match Hypervisor.run hyp with
    | Hypervisor.All_halted -> ()
    | _ -> failwith "guest did not halt");
    Printf.printf "--- %s ---\n%s" label (Vm.console_output vm);
    Printf.printf "guest cycles: %Ld, vmm cycles: %Ld, exits: %d\n"
      (Vm.guest_cycles vm) (Vm.vmm_cycles vm)
      (Monitor.total_exits vm.Vm.monitor);
    Format.printf "%a@." Monitor.pp vm.Vm.monitor;
    print_newline ();
    Vm.console_output vm
  in
  let shadow = boot Vm.Shadow_paging "virtualized, shadow paging" in
  let nested = boot Vm.Nested_paging "virtualized, nested paging" in
  if not (shadow = native && nested = native) then
    failwith "console output differs between runs";

  Printf.printf
    "The console output is identical in all three runs; only the cost of\n\
     getting there differs — that difference is what the bench suite measures.\n"
