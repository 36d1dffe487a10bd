open Velum_isa

type t = {
  mem : Phys_mem.t;
  tlb : Tlb.t;
  cost : Cost_model.t;
  get_satp : unit -> int64;
  mutable walks : int;
}

let create ~mem ~tlb ~cost ~get_satp = { mem; tlb; cost; get_satp; walks = 0 }

let accessor mem =
  {
    Page_table.read_pte =
      (fun pa ->
        if Phys_mem.in_range mem ~pa ~bytes:8 then Phys_mem.read mem pa Instr.W64
        else Pte.invalid);
    write_pte =
      (fun pa v ->
        if Phys_mem.in_range mem ~pa ~bytes:8 then Phys_mem.write mem pa Instr.W64 v);
  }

let classify_pa mem pa ~bytes =
  if Bus.is_mmio pa then `Mmio
  else if Phys_mem.in_range mem ~pa ~bytes then `Ram
  else `Bad

let page_off va = Int64.logand va (Int64.of_int (Arch.page_size - 1))

let translate t ~access ~user va =
  let satp = t.get_satp () in
  if not (Arch.satp_enabled satp) then
    match classify_pa t.mem va ~bytes:1 with
    | `Ram -> Cpu.xl_make ~pa:(Int64.to_int va) ~mmio:false ~cycles:0
    | `Mmio -> Cpu.xl_make ~pa:(Int64.to_int va) ~mmio:true ~cycles:0
    | `Bad -> Cpu.xl_access
  else
    let vpn = Int64.shift_right_logical va Arch.page_shift in
    let perms_allow (p : Pte.perms) =
      (if user then p.u else true)
      &&
      match access with
      | Arch.Fetch -> p.x
      | Arch.Load -> p.r
      | Arch.Store -> p.w
    in
    let tlb_pa (e : Tlb.entry) =
      if e.superpage then
        Int64.logor
          (Int64.shift_left e.ppn Arch.page_shift)
          (Int64.logand va (Velum_util.Bitops.mask (Arch.page_shift + Arch.vpn_bits)))
      else Int64.logor (Int64.shift_left e.ppn Arch.page_shift) (page_off va)
    in
    let hit =
      match Tlb.lookup t.tlb ~vpn with
      | Some e when perms_allow e.perms ->
          (* stores need the dirty bit already hardened *)
          if access = Arch.Store && not e.dirty_ok then None else Some e
      | _ -> None
    in
    match hit with
    | Some e -> (
        Tlb.note_hit t.tlb;
        let pa = tlb_pa e in
        (* bounds are checked per access: a superpage entry may cover
           addresses beyond the end of RAM *)
        match classify_pa t.mem pa ~bytes:1 with
        | `Bad -> Cpu.xl_access
        | `Ram | `Mmio -> Cpu.xl_make ~pa:(Int64.to_int pa) ~mmio:e.mmio ~cycles:0)
    | None -> (
        Tlb.note_miss t.tlb;
        t.walks <- t.walks + 1;
        let acc = accessor t.mem in
        match Page_table.walk acc ~root_ppn:(Arch.satp_root_ppn satp) va with
        | Error _ -> Cpu.xl_page
        | Ok { pte; pte_addr; level; refs; _ } ->
            if not (Pte.allows pte access ~user) then Cpu.xl_page
            else begin
              let pte' = Pte.set_accessed pte in
              let pte' = if access = Arch.Store then Pte.set_dirty pte' else pte' in
              if pte' <> pte then acc.write_pte pte_addr pte';
              let ppn = Pte.ppn pte in
              let pa = Page_table.leaf_pa ~pte ~level ~va in
              (* [classify_pa] the page actually touched, not the whole
                 (possibly partially-backed) superpage region *)
              let target = classify_pa t.mem pa ~bytes:1 in
              match target with
              | `Bad -> Cpu.xl_access
              | (`Ram | `Mmio) as k ->
                  let mmio = k = `Mmio in
                  Tlb.insert t.tlb
                    {
                      Tlb.vpn;
                      ppn;
                      perms = Pte.perms pte;
                      dirty_ok = Pte.dirty pte';
                      mmio;
                      superpage = level = 1;
                    };
                  let cycles = (refs * t.cost.Cost_model.pt_ref) + t.cost.Cost_model.tlb_fill in
                  Cpu.xl_make ~pa:(Int64.to_int pa) ~mmio ~cycles
            end)

let flush t = Tlb.flush t.tlb
let walk_count t = t.walks
