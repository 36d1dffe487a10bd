open Velum_isa

type setup = {
  kernel : Asm.image;
  user : Asm.image;
  config : Kernel.config;
  frames : int;
}

let entry = Abi.kernel_base

let plan ?(pv_console = false) ?(pv_pt = false) ?hcall_ok ?(heap_pages = 0)
    ?(heap_superpages = false) ?(timer_interval = 0L) ?(vnet = false) ~user () =
  let hcall_ok =
    match hcall_ok with Some v -> v | None -> pv_console || pv_pt
  in
  let base =
    {
      Kernel.default with
      pv_console;
      pv_pt;
      hcall_ok;
      heap_pages;
      heap_superpages;
      timer_interval;
      vnet;
    }
  in
  let config = Kernel.for_user ~config:base user in
  let kernel = Kernel.build config in
  let frames =
    Abi.min_frames ~vnet ~user_image_bytes:(Bytes.length user.Asm.code)
      ~heap_pages ()
  in
  { kernel; user; config; frames }

let boot_native ?engine setup =
  let platform = Velum_devices.Platform.create ~frames:(setup.frames + 16) ?engine () in
  Velum_devices.Platform.load_image platform setup.kernel;
  Velum_devices.Platform.load_image platform setup.user;
  Velum_devices.Platform.boot platform ~entry;
  platform

let load_vm vm setup =
  Velum_vmm.Vm.load_image vm setup.kernel;
  Velum_vmm.Vm.load_image vm setup.user

let create_vm hyp ~name ?vcpu_count ?paging ?pv ?weight ?nic ?tlb_size ?exec_mode
    ?engine setup =
  let vm =
    Velum_vmm.Hypervisor.create_vm hyp ~name ~mem_frames:setup.frames ?vcpu_count
      ?paging ?pv ?weight ?tlb_size ?exec_mode ?engine ~entry ()
  in
  Option.iter (Velum_vmm.Vm.attach_nic vm) nic;
  load_vm vm setup;
  vm

let hypervisor ?host_frames ?cost setup =
  let frames = Option.value host_frames ~default:(setup.frames + 1024) in
  Velum_vmm.Hypervisor.create ~host:(Velum_vmm.Host.create ~frames ?cost ()) ()

let boot ?host_frames ?cost ~name ?paging ?pv ?tlb_size ?exec_mode ?engine setup =
  let hyp = hypervisor ?host_frames ?cost setup in
  (hyp, create_vm hyp ~name ?paging ?pv ?tlb_size ?exec_mode ?engine setup)
