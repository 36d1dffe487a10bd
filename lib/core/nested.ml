open Velum_isa
open Velum_machine

type env = {
  mem : Phys_mem.t;
  cost : Cost_model.t;
  p2m : P2m.t;
  mark_ad_write : int64 -> unit;
}

type t = { env : env; mutable walk_count : int }

let create env = { env; walk_count = 0 }

let walks t = t.walk_count

let page = Arch.page_size
let frame_base ppn = Int64.shift_left ppn Arch.page_shift
let page_off va = Int64.logand va (Int64.of_int (page - 1))
let gfn_of gpa = Int64.shift_right_logical gpa Arch.page_shift

(* Host dimension: resolve a gfn for the walker.  The walker reads guest
   table pages regardless of the p2m writable bit (hardware table walks
   are not write-checked); A/D updates may write through dirty-logging
   protection (they report via mark_ad_write) but never through COW —
   the frame is shared, so the update must fault to the hypervisor. *)
let host_lookup t gfn =
  if not (P2m.in_range t.env.p2m gfn) then `Bad
  else
    match P2m.get t.env.p2m gfn with
    | P2m.Present { hpa_ppn; writable; cow } ->
        `Ram (hpa_ppn, writable && not cow, cow)
    | P2m.Absent -> `Bad
    | P2m.Swapped _ | P2m.Ballooned | P2m.Remote -> `Host_fault

(* One 2-D walk.  Returns the machine frame, effective permissions and
   the number of memory references, or the failure class. *)
type walk_outcome =
  | W_ram of { hpa_ppn : int64; perms : Pte.perms; dirty_ok : bool; refs : int }
  | W_mmio of { gpa : int64 }
  | W_guest_fault
  | W_host_fault of { gfn : int64 }
  | W_bad

let walk_2d t ~guest_satp ~access ~user va =
  let env = t.env in
  t.walk_count <- t.walk_count + 1;
  if not (Page_table.canonical va) then W_guest_fault
  else begin
    let refs = ref 0 in
    (* Each guest-level reference costs one access to the guest table
       page plus a host walk for its address. *)
    let host_levels = Arch.pt_levels in
    let exception Stop of walk_outcome in
    try
      let read_gpte table_gfn index =
        match host_lookup t table_gfn with
        | `Bad -> raise (Stop W_bad)
        | `Host_fault -> raise (Stop (W_host_fault { gfn = table_gfn }))
        | `Ram (hpa_ppn, _, _) ->
            refs := !refs + 1 + host_levels;
            Phys_mem.read env.mem
              (Int64.add (frame_base hpa_ppn) (Int64.of_int (index * 8)))
              Instr.W64
      in
      let write_gpte table_gfn index v =
        match host_lookup t table_gfn with
        | `Ram (_, _, true) ->
            (* A/D update into a shared frame: must break COW first. *)
            raise (Stop (W_host_fault { gfn = table_gfn }))
        | `Ram (hpa_ppn, _, false) ->
            Phys_mem.write env.mem
              (Int64.add (frame_base hpa_ppn) (Int64.of_int (index * 8)))
              Instr.W64 v;
            env.mark_ad_write table_gfn
        | `Bad | `Host_fault -> ()
      in
      (* Finish through a leaf found at [level]: a guest superpage
         (level 1) still composes with 4 KiB host frames, so the cached
         translation splinters to a 4 KiB entry — the hardware behaviour
         when the host does not back guests with large frames. *)
      let finish level table_gfn index gpte =
        if not (Pte.allows gpte access ~user) then raise (Stop W_guest_fault);
        if level = 1 && not (Velum_util.Bitops.is_aligned (Pte.ppn gpte) (1 lsl Arch.vpn_bits))
        then raise (Stop W_guest_fault);
        (* Architectural A/D maintenance in the guest tables. *)
        let gpte' = Pte.set_accessed gpte in
        let gpte' = if access = Arch.Store then Pte.set_dirty gpte' else gpte' in
        if gpte' <> gpte then write_gpte table_gfn index gpte';
        let target_gfn =
          if level = 0 then Pte.ppn gpte
          else
            Int64.add (Pte.ppn gpte)
              (Velum_util.Bitops.extract va ~lo:Arch.page_shift ~width:Arch.vpn_bits)
        in
        let target_base = frame_base target_gfn in
        if Bus.is_mmio target_base then
          raise (Stop (W_mmio { gpa = Int64.logor target_base (page_off va) }));
        match host_lookup t target_gfn with
        | `Bad -> raise (Stop W_bad)
        | `Host_fault -> raise (Stop (W_host_fault { gfn = target_gfn }))
        | `Ram (hpa_ppn, host_w, _) ->
            if access = Arch.Store && not host_w then
              raise (Stop (W_host_fault { gfn = target_gfn }));
            (* final host walk for the data page *)
            refs := !refs + host_levels;
            let gp = Pte.perms gpte in
            let eff = { gp with w = gp.w && host_w } in
            W_ram
              {
                hpa_ppn;
                perms = eff;
                dirty_ok = (access = Arch.Store || Pte.dirty gpte') && host_w;
                refs = !refs;
              }
      in
      let rec descend level table_gfn =
        let index = Page_table.vpn va ~level in
        let gpte = read_gpte table_gfn index in
        if not (Pte.is_valid gpte) then raise (Stop W_guest_fault);
        if Pte.is_leaf gpte then
          if level <= 1 then finish level table_gfn index gpte
          else raise (Stop W_guest_fault)
        else if level = 0 then raise (Stop W_guest_fault)
        else descend (level - 1) (Pte.ppn gpte)
      in
      descend (Arch.pt_levels - 1) (Arch.satp_root_ppn guest_satp)
    with Stop o -> o
  end

(* Guest paging disabled: identity guest-virtual → guest-physical, host
   dimension only. *)
let walk_bare t ~access va =
  let gpa = va in
  if Bus.is_mmio gpa then W_mmio { gpa }
  else begin
    let gfn = gfn_of gpa in
    match host_lookup t gfn with
    | `Bad -> W_bad
    | `Host_fault -> W_host_fault { gfn }
    | `Ram (hpa_ppn, host_w, _) ->
        if access = Arch.Store && not host_w then W_host_fault { gfn }
        else
          W_ram
            {
              hpa_ppn;
              perms = { Pte.r = true; w = host_w; x = true; u = true };
              dirty_ok = host_w;
              refs = Arch.pt_levels;
            }
  end

let translate t ~guest_satp ~tlb ~access ~user va =
  let vpn = Int64.shift_right_logical va Arch.page_shift in
  let hit =
    match Tlb.lookup tlb ~vpn with
    | Some e when (not e.mmio) && Tlb.permits e access ~user -> Some e
    | Some e when e.mmio -> Some e
    | _ -> None
  in
  match hit with
  | Some e ->
      Tlb.note_hit tlb;
      Cpu.xl_frame ~ppn:e.ppn ~va ~mmio:e.mmio ~cycles:0
  | None -> (
      Tlb.note_miss tlb;
      let outcome =
        if Arch.satp_enabled guest_satp then walk_2d t ~guest_satp ~access ~user va
        else walk_bare t ~access va
      in
      let cost = t.env.cost in
      match outcome with
      | W_ram { hpa_ppn; perms; dirty_ok; refs } ->
          Tlb.insert tlb
            { Tlb.vpn; ppn = hpa_ppn; perms; dirty_ok; mmio = false; superpage = false };
          Cpu.xl_frame ~ppn:hpa_ppn ~va ~mmio:false
            ~cycles:((refs * cost.Cost_model.pt_ref) + cost.Cost_model.tlb_fill)
      | W_mmio { gpa } ->
          (* Cache the guest-physical page so repeated device touches
             skip the walk; the exit itself still happens. *)
          Tlb.insert tlb
            {
              Tlb.vpn;
              ppn = gfn_of gpa;
              perms = { Pte.r = true; w = true; x = false; u = true };
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
  let outcome =
    if Arch.satp_enabled guest_satp then walk_2d t ~guest_satp ~access ~user va
    else walk_bare t ~access va
  in
  match outcome with
  | W_guest_fault -> Guest_level
  | W_host_fault { gfn } -> Host_level { gfn }
  | W_mmio { gpa } -> Mmio { gpa }
  | W_bad -> Bad { gpa = va }
  | W_ram _ ->
      (* The re-walk succeeded — the first walk's side effects (A/D
         updates) already repaired it; treat as host-level no-op. *)
      Host_level { gfn = -1L }
