open Velum_isa
open Velum_machine

type env = {
  mem : Phys_mem.t;
  cost : Cost_model.t;
  p2m : P2m.t;
  mark_ad_write : int64 -> unit;
}

type t = {
  env : env;
  read : int -> Pte.Word.t;
      (* a guest table entry by guest-physical address, through the p2m:
         the walker's reader, built once *)
  w : Page_table.walk;
  mutable failed : int;
      (* the table frame the p2m could not serve in the current walk:
         [no_failure], [bad_table] (Absent or out of range), or the gfn of
         a Swapped, Ballooned or Remote frame *)
  mutable walk_count : int;
}

let no_failure = -2
let bad_table = -1

(* Guest dimension.  Hardware table walks are not write-checked, so a
   table page is read whatever its p2m writable bit; a frame the p2m
   cannot serve reads as an invalid entry, which stops the walk, and
   leaves its failure in [failed]. *)
let read_entry t gpa =
  let gfn = gpa lsr Arch.page_shift in
  match P2m.lookup t.env.p2m gfn with
  | P2m.Present { hpa_ppn; _ } ->
      Phys_mem.read_word t.env.mem
        ((Int64.to_int hpa_ppn lsl Arch.page_shift) lor (gpa land (Arch.page_size - 1)))
  | P2m.Absent ->
      t.failed <- bad_table;
      0
  | P2m.Swapped _ | P2m.Ballooned | P2m.Remote ->
      t.failed <- gfn;
      0

let create env =
  let rec t =
    {
      env;
      read = (fun gpa -> read_entry t gpa);
      w = Page_table.scratch ();
      failed = no_failure;
      walk_count = 0;
    }
  in
  t

let walks t = t.walk_count

let page_off va = Int64.logand va (Int64.of_int (Arch.page_size - 1))

type walk_outcome =
  | W_ram of { hpa_ppn : int64; perms : Pte.perms; dirty_ok : bool; refs : int }
  | W_mmio of { gpa : int64 }
  | W_guest_fault
  | W_host_fault of { gfn : int64 }
  | W_bad

(* Host dimension of the data frame [gfn]: a store needs its p2m entry
   writable and not COW, and so does a writable or dirty translation. *)
let host_target t ~store gfn ~(perms : Pte.perms) ~dirty ~refs =
  match P2m.lookup t.env.p2m gfn with
  | P2m.Present { hpa_ppn; writable; cow } ->
      let host_w = writable && not cow in
      if store && not host_w then W_host_fault { gfn = Int64.of_int gfn }
      else
        let perms = if host_w || not perms.w then perms else { perms with w = false } in
        W_ram { hpa_ppn; perms; dirty_ok = dirty && host_w; refs }
  | P2m.Absent -> W_bad
  | P2m.Swapped _ | P2m.Ballooned | P2m.Remote -> W_host_fault { gfn = Int64.of_int gfn }

(* Architectural A/D maintenance on the guest leaf at [gpa], whole 64-bit
   entry.  The update may write through dirty-logging protection (it
   reports through [mark_ad_write]) but never through COW: the frame is
   shared, so the update faults to the hypervisor ([false]). *)
let write_ad t gpa ~store =
  let gfn = gpa lsr Arch.page_shift in
  match P2m.lookup t.env.p2m gfn with
  | P2m.Present { cow = true; _ } -> false
  | P2m.Present { hpa_ppn; _ } ->
      let addr =
        Int64.logor (Int64.shift_left hpa_ppn Arch.page_shift)
          (Int64.of_int (gpa land (Arch.page_size - 1)))
      in
      Phys_mem.write t.env.mem addr Instr.W64
        (Pte.mark_ad (Phys_mem.read t.env.mem addr Instr.W64) ~store);
      t.env.mark_ad_write (Int64.of_int gfn);
      true
  | P2m.Absent | P2m.Swapped _ | P2m.Ballooned | P2m.Remote -> true

(* One 2-D walk: the guest dimension through [Page_table.walk], each
   entry read costing one reference to the table page plus a host walk
   for its address, then the leaf.  A guest superpage still composes with
   4 KiB host frames, so the cached translation splinters to a 4 KiB
   entry — the hardware behaviour when the host does not back guests
   with large frames. *)
let walk_2d t ~guest_satp ~access ~user va =
  t.walk_count <- t.walk_count + 1;
  t.failed <- no_failure;
  let w = t.w in
  let root_ppn = Int64.to_int (Arch.satp_root_ppn guest_satp) in
  if not (Page_table.walk ~read:t.read w ~root_ppn va) then
    if t.failed = no_failure then W_guest_fault
    else if t.failed = bad_table then W_bad
    else W_host_fault { gfn = Int64.of_int t.failed }
  else begin
    let pte = w.Page_table.pte in
    let store = access = Arch.Store in
    if not (Pte.Word.allows pte access ~user) then W_guest_fault
    else if Pte.Word.needs_ad pte ~store && not (write_ad t w.Page_table.pte_addr ~store)
    then W_host_fault { gfn = Int64.of_int (w.Page_table.pte_addr lsr Arch.page_shift) }
    else begin
      let target_gfn =
        if w.Page_table.level = 0 then Pte.Word.ppn pte
        else Pte.Word.ppn pte + Page_table.vpn va ~level:0
      in
      let target_base = Int64.of_int (target_gfn lsl Arch.page_shift) in
      if Bus.is_mmio target_base then W_mmio { gpa = Int64.logor target_base (page_off va) }
      else
        host_target t ~store target_gfn
          ~perms:(Pte.perms (Int64.of_int pte))
          ~dirty:(store || Pte.Word.dirty pte)
          (* and a final host walk for the data page *)
          ~refs:((w.Page_table.refs * (1 + Arch.pt_levels)) + Arch.pt_levels)
    end
  end

let bare_perms = { Pte.r = true; w = true; x = true; u = true }

(* Guest paging disabled: identity guest-virtual → guest-physical, host
   dimension only. *)
let walk_bare t ~access va =
  if Bus.is_mmio va then W_mmio { gpa = va }
  else
    host_target t ~store:(access = Arch.Store)
      (Int64.to_int (Int64.shift_right_logical va Arch.page_shift))
      ~perms:bare_perms ~dirty:true ~refs:Arch.pt_levels

let walk t ~guest_satp ~access ~user va =
  if Arch.satp_enabled guest_satp then walk_2d t ~guest_satp ~access ~user va
  else walk_bare t ~access va

let translate t ~guest_satp ~tlb ~access ~user va =
  let vpn = Int64.shift_right_logical va Arch.page_shift in
  match Tlb.probe tlb ~vpn access ~user with
  | hit when hit >= 0 ->
      Tlb.note_hit tlb;
      Cpu.xl_hit hit ~va
  | _ -> (
      Tlb.note_miss tlb;
      match walk t ~guest_satp ~access ~user va with
      | W_ram { hpa_ppn; perms; dirty_ok; refs } ->
          Tlb.insert tlb
            { Tlb.vpn; ppn = hpa_ppn; perms; dirty_ok; mmio = false; superpage = false };
          Cpu.xl_frame ~ppn:hpa_ppn ~va ~mmio:false
            ~cycles:(Cost_model.fill_cycles t.env.cost ~refs)
      | W_mmio { gpa } ->
          (* Cache the guest-physical page so repeated device touches
             skip the walk; the exit itself still happens, so the entry
             permits every access. *)
          Tlb.insert tlb
            {
              Tlb.vpn;
              ppn = Int64.shift_right_logical gpa Arch.page_shift;
              perms = bare_perms;
              dirty_ok = true;
              mmio = true;
              superpage = false;
            };
          Cpu.xl_make ~pa:(Int64.to_int gpa) ~mmio:true ~cycles:0
      | W_guest_fault | W_host_fault _ -> Cpu.xl_page
      | W_bad -> Cpu.xl_access)

type classify =
  | Guest_level
  | Host_level of { gfn : int64 }
  | Mmio of { gpa : int64 }
  | Bad of { gpa : int64 }

let classify_fault t ~guest_satp ~access ~user ~va =
  match walk t ~guest_satp ~access ~user va with
  | W_guest_fault -> Guest_level
  | W_host_fault { gfn } -> Host_level { gfn }
  | W_mmio { gpa } -> Mmio { gpa }
  | W_bad -> Bad { gpa = va }
  | W_ram _ ->
      (* The re-walk succeeded — the first walk's side effects (A/D
         updates) already repaired it; treat as host-level no-op. *)
      Host_level { gfn = -1L }
