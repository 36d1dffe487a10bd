open Velum_isa
open Velum_machine

let hc_console_putc = 0L
let hc_console_write = 1L
let hc_yield = 2L
let hc_set_timer = 3L
let hc_balloon_give = 4L
let hc_balloon_want = 5L
let hc_pt_update = 6L
let hc_pt_update_batch = 7L
let hc_vm_id = 8L

type action = Continue | Yield_cpu

let ok = 0L
let err = -1L

let pt_update (vm : Vm.t) gpa value =
  match vm.Vm.shadow with
  | Some shadow ->
      let applied = Shadow.emulate_pt_write shadow ~gpa ~value in
      if Shadow.take_tlb_flush shadow then Vm.flush_all_tlbs vm;
      applied
  | None -> Vm.write_gpa_u64 vm gpa value

let dispatch (vm : Vm.t) ~vcpu_idx ~now:_ =
  let vcpu = vm.Vm.vcpus.(vcpu_idx) in
  let s = vcpu.Vcpu.state in
  let arg n = Cpu.get_reg s n in
  let num = arg 1 in
  let ret v = Cpu.set_reg s 1 v in
  let action = ref Continue in
  (if num = hc_console_putc then begin
     Vm.console_put vm (Char.chr (Int64.to_int (Int64.logand (arg 2) 0xFFL)));
     ret ok
   end
   else if num = hc_console_write then begin
     match Vm.read_gpa_bytes vm (arg 2) (Int64.to_int (arg 3)) with
     | Some b ->
         String.iter (fun c -> Vm.console_put vm c) (Bytes.to_string b);
         ret ok
     | None -> ret err
   end
   else if num = hc_yield then begin
     action := Yield_cpu;
     ret ok
   end
   else if num = hc_set_timer then begin
     Cpu.set_csr s Arch.Stimecmp (arg 2);
     ret ok
   end
   else if num = hc_balloon_give then
     ret (if Vm.balloon_out vm (arg 2) then ok else err)
   else if num = hc_balloon_want then
     ret (if Vm.balloon_in vm (arg 2) then ok else err)
   else if num = hc_pt_update then
     ret (if pt_update vm (arg 2) (arg 3) then ok else err)
   else if num = hc_pt_update_batch then begin
     let base = arg 2 and count = Int64.to_int (arg 3) in
     let rec apply i =
       if i >= count then true
       else
         let entry = Int64.add base (Int64.of_int (i * 16)) in
         match (Vm.read_gpa_u64 vm entry, Vm.read_gpa_u64 vm (Int64.add entry 8L)) with
         | Some gpa, Some value -> pt_update vm gpa value && apply (i + 1)
         | _ -> false
     in
     ret (if apply 0 then ok else err)
   end
   else if num = hc_vm_id then ret (Int64.of_int vm.Vm.id)
   else ret err);
  Cpu.advance_pc s;
  !action
