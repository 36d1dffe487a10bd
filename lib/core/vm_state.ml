open Velum_isa
open Velum_machine
open Velum_devices
module Serial = Velum_util.Serial

type t = Bytes.t

(* --- the codec ---

   shape    name, frames, vCPU count, then flags (nested paging, PV
            console, PV page tables, binary translation, block engine),
            TLB size, weight
   vCPUs    their count, then each one's registers and PC, mode, CSRs,
            halted, waiting, instret and run state
   devices  Uart, Blockdev, Virtio_blk, then the port devices Nic and
            Virtio_net as sections, empty without the port *)

let runstates = Vcpu.[| Runnable; Running; Blocked; Halted |]

(* The vCPUs and devices, either direction ({!Serial.io}); a load
   restarts the device clocks at [now]. *)
let vcpus_and_devices io ~now (vm : Vm.t) =
  let n = Array.length vm.Vm.vcpus in
  if Serial.int io n <> n then failwith "Vm_state: vCPU count disagrees with the shape";
  Array.iter
    (fun (v : Vcpu.t) ->
      let s = v.Vcpu.state in
      Serial.bytes io s.Cpu.regs;
      s.Cpu.mode <-
        (if Serial.bool io (s.Cpu.mode = Arch.Supervisor) then Arch.Supervisor else Arch.User);
      Array.iteri (fun i c -> s.Cpu.csrs.(i) <- Serial.i64 io c) s.Cpu.csrs;
      s.Cpu.halted <- Serial.bool io s.Cpu.halted;
      s.Cpu.waiting <- Serial.bool io s.Cpu.waiting;
      s.Cpu.instret <- Serial.i64 io s.Cpu.instret;
      let code =
        Vcpu.(match v.runstate with Runnable -> 0 | Running -> 1 | Blocked -> 2 | Halted -> 3)
      in
      v.Vcpu.runstate <- runstates.(Serial.int ~max:3 io code))
    vm.Vm.vcpus;
  Uart.state vm.Vm.uart io;
  Blockdev.state vm.Vm.blk io ~now;
  Virtio_blk.state vm.Vm.vblk io ~now ~ram_bytes:(Vm.mem_frames vm * Arch.page_size);
  Serial.section io (Option.map Nic.state vm.Vm.nic);
  Serial.section io (Option.map Virtio_net.state vm.Vm.vnet)

let save (vm : Vm.t) =
  let b = Buffer.create 1024 in
  let io = Serial.Save b in
  ignore (Serial.string io vm.Vm.name);
  List.iter
    (fun v -> ignore (Serial.int io v))
    [ Vm.mem_frames vm; Array.length vm.Vm.vcpus ];
  List.iter
    (fun v -> ignore (Serial.bool io v))
    [ vm.Vm.paging = Vm.Nested_paging; vm.Vm.pv.Vm.pv_console; vm.Vm.pv.Vm.pv_pt;
      vm.Vm.exec_mode = Vm.Binary_translation; Vm.engine_kind vm = Engine.Block ];
  List.iter
    (fun v -> ignore (Serial.int io v))
    [ Tlb.size vm.Vm.tlbs.(0); vm.Vm.vcpus.(0).Vcpu.weight ];
  vcpus_and_devices io ~now:0L vm;
  Buffer.to_bytes b

(* Read the shape, checked before anything is allocated (a VM numbers
   at most 64 vCPUs, and 4096 TLB entries each bound what a corrupt
   shape can make us allocate, as does [max_frames], which a caller
   holding the VM's page records sets to how many they can be);
   applying the result builds the VM it describes. *)
let read_shape ?(max_frames = 1 lsl 24) io =
  let positive max =
    let n = Serial.int ~max io 0 in
    if n = 0 then failwith "Vm_state: bad shape";
    n
  in
  let flag () = Serial.bool io false in
  let name = Serial.string io "" in
  let mem_frames = positive (min max_frames (1 lsl 24)) in
  let vcpu_count = positive 64 in
  let paging = if flag () then Vm.Nested_paging else Vm.Shadow_paging in
  let pv_console = flag () in
  let pv_pt = flag () in
  let exec_mode = if flag () then Vm.Binary_translation else Vm.Trap_emulate in
  let engine = if flag () then Engine.Block else Engine.Interp in
  let tlb_size = positive 4096 in
  let weight = positive (1 lsl 20) in
  fun hyp ~suffix ~populate ->
    Hypervisor.create_vm hyp ~name:(name ^ suffix) ~mem_frames ~vcpu_count ~paging
      ~pv:{ Vm.pv_console; pv_pt } ~exec_mode ~engine ~tlb_size ~weight ~populate
      ~entry:0L ()

let create_vm hyp ?(suffix = "") ?max_frames ~populate st =
  read_shape ?max_frames (Serial.Load (Serial.reader st)) hyp ~suffix ~populate

let load hyp (vm : Vm.t) st =
  let io = Serial.Load (Serial.reader st) in
  let[@warning "-5"] _shape = read_shape io in
  vcpus_and_devices io ~now:(Hypervisor.now hyp) vm

let move hyp ~(from : Vm.t) (vm : Vm.t) =
  Option.iter (fun n -> Vm.attach_nic vm (Nic.binding n)) from.Vm.nic;
  Option.iter
    (fun v ->
      ignore (Vm.attach_vnet vm ~link:(Virtio_net.link v) ~endpoint:(Virtio_net.endpoint v)))
    from.Vm.vnet;
  load hyp vm (save from);
  Option.iter Virtio_net.unplug from.Vm.vnet
