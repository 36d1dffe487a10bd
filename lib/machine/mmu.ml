open Velum_isa

type t = {
  mem : Phys_mem.t;
  tlb : Tlb.t;
  cost : Cost_model.t;
  get_satp : unit -> int64;
  read_pte : int -> Pte.Word.t;
  walk : Page_table.walk;
  mutable walks : int;
}

let create ~mem ~tlb ~cost ~get_satp =
  let last = Phys_mem.size_bytes mem - 8 in
  (* an entry outside RAM reads as not present *)
  let read_pte pa = if pa >= 0 && pa <= last then Phys_mem.read_word mem pa else 0 in
  { mem; tlb; cost; get_satp; read_pte; walk = Page_table.scratch (); walks = 0 }

let classify_pa mem pa ~bytes =
  if Bus.is_mmio pa then `Mmio
  else if Phys_mem.in_range mem ~pa ~bytes then `Ram
  else `Bad

let translate t ~access ~user va =
  let satp = t.get_satp () in
  if not (Arch.satp_enabled satp) then
    match classify_pa t.mem va ~bytes:1 with
    | `Ram -> Cpu.xl_make ~pa:(Int64.to_int va) ~mmio:false ~cycles:0
    | `Mmio -> Cpu.xl_make ~pa:(Int64.to_int va) ~mmio:true ~cycles:0
    | `Bad -> Cpu.xl_access
  else
    let vpn = Int64.shift_right_logical va Arch.page_shift in
    match Tlb.probe t.tlb ~vpn access ~user with
    | hit when hit >= 0 -> (
        Tlb.note_hit t.tlb;
        let pa = Tlb.hit_pa hit ~va in
        (* bounds are checked per access: a superpage entry may cover
           addresses beyond the end of RAM *)
        match classify_pa t.mem (Int64.of_int pa) ~bytes:1 with
        | `Bad -> Cpu.xl_access
        | `Ram | `Mmio -> Cpu.xl_make ~pa ~mmio:(Tlb.hit_mmio hit) ~cycles:0)
    | _ -> (
        Tlb.note_miss t.tlb;
        t.walks <- t.walks + 1;
        let w = t.walk in
        if
          not
            (Page_table.walk ~read:t.read_pte w
               ~root_ppn:(Int64.to_int (Arch.satp_root_ppn satp))
               va)
        then Cpu.xl_page
        else
          let pte = w.Page_table.pte in
          if not (Pte.Word.allows pte access ~user) then Cpu.xl_page
          else begin
            let store = access = Arch.Store in
            (* architectural A/D maintenance, on the whole 64-bit entry *)
            if Pte.Word.needs_ad pte ~store then begin
              let addr = Int64.of_int w.Page_table.pte_addr in
              Phys_mem.write t.mem addr Instr.W64
                (Pte.mark_ad (Phys_mem.read t.mem addr Instr.W64) ~store)
            end;
            let level = w.Page_table.level in
            let pa = Page_table.leaf_pa ~pte ~level ~va in
            (* [classify_pa] the page actually touched, not the whole
               (possibly partially-backed) superpage region *)
            match classify_pa t.mem (Int64.of_int pa) ~bytes:1 with
            | `Bad -> Cpu.xl_access
            | (`Ram | `Mmio) as k ->
                let mmio = k = `Mmio in
                let pte64 = Int64.of_int pte in
                Tlb.insert t.tlb
                  {
                    Tlb.vpn;
                    ppn = Pte.ppn pte64;
                    perms = Pte.perms pte64;
                    dirty_ok = store || Pte.Word.dirty pte;
                    mmio;
                    superpage = level = 1;
                  };
                Cpu.xl_make ~pa ~mmio
                  ~cycles:(Cost_model.fill_cycles t.cost ~refs:w.Page_table.refs)
          end)

let flush t = Tlb.flush t.tlb
let walk_count t = t.walks
