open Velum_isa
open Velum_machine

type env = {
  mem : Phys_mem.t;
  alloc : Frame_alloc.t;
  cost : Cost_model.t;
  read_guest_pte : int64 -> Pte.t option;
  write_guest_pte : int64 -> Pte.t -> bool;
  resolve_read : int64 -> int64 option;
  resolve_write : int64 -> int64 option;
  host_writable : int64 -> bool;
}

type pair = { shadow_ppn : int64; pair_level : int }

type t = {
  env : env;
  pairs : (int64, pair) Hashtbl.t; (* guest table gfn -> shadow table page *)
  synthetic : (int64 * int, int64) Hashtbl.t;
      (* (guest L1-table gfn, index) -> shadow level-0 table splintering
         a guest 2 MiB superpage into 4 KiB shadow leaves *)
  rmap : (int64, int64 list ref) Hashtbl.t; (* data gfn -> shadow leaf slots *)
  mutable fill_count : int;
  mutable pt_write_count : int;
  mutable needs_flush : bool;
}

let create env =
  {
    env;
    pairs = Hashtbl.create 64;
    synthetic = Hashtbl.create 16;
    rmap = Hashtbl.create 256;
    fill_count = 0;
    pt_write_count = 0;
    needs_flush = false;
  }

let is_pt_gfn t gfn = Hashtbl.mem t.pairs gfn

let shadow_root t ~root_gfn =
  Option.map (fun p -> p.shadow_ppn) (Hashtbl.find_opt t.pairs root_gfn)

let fills t = t.fill_count
let pt_writes t = t.pt_write_count
let table_frames t = Hashtbl.length t.pairs + Hashtbl.length t.synthetic

let page = Arch.page_size
let frame_base ppn = Int64.shift_left ppn Arch.page_shift
let page_off va = Int64.logand va (Int64.of_int (page - 1))

let read_shadow_pte t addr = Phys_mem.read t.env.mem addr Instr.W64
let write_shadow_pte t addr v = Phys_mem.write t.env.mem addr Instr.W64 v

(* Strip the writable bit from every shadow leaf that maps [gfn]; used
   when a data frame is promoted to a guest page-table page. *)
let strip_rmap_writable t gfn =
  match Hashtbl.find_opt t.rmap gfn with
  | None -> ()
  | Some slots ->
      List.iter
        (fun addr ->
          let pte = read_shadow_pte t addr in
          if Pte.is_leaf pte then begin
            let p = Pte.perms pte in
            write_shadow_pte t addr (Pte.with_perms pte { p with w = false })
          end)
        !slots;
      t.needs_flush <- true

let ensure_pair t gfn level =
  match Hashtbl.find_opt t.pairs gfn with
  | Some p -> p.shadow_ppn
  | None ->
      let shadow_ppn = Frame_alloc.alloc_exn t.env.alloc in
      Hashtbl.replace t.pairs gfn { shadow_ppn; pair_level = level };
      (* The frame is now a page-table page: revoke existing write
         mappings so future guest PTE updates trap. *)
      strip_rmap_writable t gfn;
      t.needs_flush <- true;
      shadow_ppn

let ensure_synthetic t table_gfn index =
  match Hashtbl.find_opt t.synthetic (table_gfn, index) with
  | Some ppn -> ppn
  | None ->
      let ppn = Frame_alloc.alloc_exn t.env.alloc in
      Hashtbl.replace t.synthetic (table_gfn, index) ppn;
      ppn

let rmap_add t gfn addr =
  let slots =
    match Hashtbl.find_opt t.rmap gfn with
    | Some l -> l
    | None ->
        let l = ref [] in
        Hashtbl.replace t.rmap gfn l;
        l
  in
  if not (List.mem addr !slots) then slots := addr :: !slots

type fill_result =
  | Filled of { cycles : int }
  | Guest_fault
  | Target_mmio of { gpa : int64 }
  | Pt_write of { gpa : int64 }
  | Bad_gpa

let handle_fault t ~root_gfn ~access ~user ~va =
  let env = t.env in
  if not (Page_table.canonical va) then Guest_fault
  else begin
    let root_shadow = ensure_pair t root_gfn (Arch.pt_levels - 1) in
    (* Walk the guest tables level by level, pairing each table page and
       linking the shadow skeleton as we descend. *)
    let rec descend level table_gfn shadow_ppn =
      let index = Page_table.vpn va ~level in
      let gpte_gpa = Int64.add (frame_base table_gfn) (Int64.of_int (index * 8)) in
      match env.read_guest_pte gpte_gpa with
      | None -> Bad_gpa
      | Some gpte ->
          if not (Pte.is_valid gpte) then Guest_fault
          else if Pte.is_leaf gpte then
            if level = 0 then
              finish gpte gpte_gpa ~target_gfn:(Pte.ppn gpte) shadow_ppn index
            else if
              level = 1
              && Velum_util.Bitops.is_aligned (Pte.ppn gpte) (1 lsl Arch.vpn_bits)
            then begin
              (* guest 2 MiB superpage: splinter into 4 KiB shadow
                 leaves through a synthetic level-0 table *)
              let synth = ensure_synthetic t table_gfn index in
              let slot = Int64.add (frame_base shadow_ppn) (Int64.of_int (index * 8)) in
              let cur = read_shadow_pte t slot in
              if not (Pte.is_valid cur) || Pte.ppn cur <> synth then
                write_shadow_pte t slot (Pte.table ~ppn:synth);
              let vpn0 = Page_table.vpn va ~level:0 in
              let target_gfn = Int64.add (Pte.ppn gpte) (Int64.of_int vpn0) in
              finish gpte gpte_gpa ~target_gfn synth vpn0
            end
            else Guest_fault
          else if level = 0 then Guest_fault
          else begin
            let child_gfn = Pte.ppn gpte in
            let child_shadow = ensure_pair t child_gfn (level - 1) in
            let slot = Int64.add (frame_base shadow_ppn) (Int64.of_int (index * 8)) in
            let cur = read_shadow_pte t slot in
            if not (Pte.is_valid cur) || Pte.ppn cur <> child_shadow then
              write_shadow_pte t slot (Pte.table ~ppn:child_shadow);
            descend (level - 1) child_gfn child_shadow
          end
    and finish gpte gpte_gpa ~target_gfn leaf_shadow_ppn index =
      if not (Pte.allows gpte access ~user) then Guest_fault
      else begin
        let target_gpa = Int64.logor (frame_base target_gfn) (page_off va) in
        if Bus.is_mmio (frame_base target_gfn) then Target_mmio { gpa = target_gpa }
        else if access = Arch.Store && is_pt_gfn t target_gfn then
          Pt_write { gpa = target_gpa }
        else begin
          let resolved =
            if access = Arch.Store then env.resolve_write target_gfn
            else env.resolve_read target_gfn
          in
          match resolved with
          | None -> Bad_gpa
          | Some hpa_ppn ->
              (* Architectural A/D maintenance on the guest leaf. *)
              let gpte' = Pte.set_accessed gpte in
              let gpte' = if access = Arch.Store then Pte.set_dirty gpte' else gpte' in
              if gpte' <> gpte then ignore (env.write_guest_pte gpte_gpa gpte');
              let gp = Pte.perms gpte in
              let w =
                gp.w && Pte.dirty gpte'
                && env.host_writable target_gfn
                && not (is_pt_gfn t target_gfn)
              in
              let sp = { gp with w } in
              let slot = Int64.add (frame_base leaf_shadow_ppn) (Int64.of_int (index * 8)) in
              write_shadow_pte t slot (Pte.set_dirty (Pte.set_accessed (Pte.leaf ~ppn:hpa_ppn sp)));
              rmap_add t target_gfn slot;
              t.fill_count <- t.fill_count + 1;
              let cycles = t.env.cost.Cost_model.emul_instr * (Arch.pt_levels + 1) in
              Filled { cycles }
        end
      end
    in
    descend (Arch.pt_levels - 1) root_gfn root_shadow
  end

let emulate_pt_write t ~gpa ~value =
  if t.env.write_guest_pte gpa value then begin
    let gfn = Int64.shift_right_logical gpa Arch.page_shift in
    (match Hashtbl.find_opt t.pairs gfn with
    | Some pair ->
        let index = Int64.to_int (Int64.div (page_off gpa) 8L) in
        let slot = Int64.add (frame_base pair.shadow_ppn) (Int64.of_int (index * 8)) in
        write_shadow_pte t slot Pte.invalid
    | None -> ());
    t.pt_write_count <- t.pt_write_count + 1;
    t.needs_flush <- true;
    true
  end
  else false

let invalidate_gfn t gfn =
  (match Hashtbl.find_opt t.rmap gfn with
  | Some slots ->
      List.iter (fun addr -> write_shadow_pte t addr Pte.invalid) !slots;
      slots := []
  | None -> ());
  t.needs_flush <- true

let clear_table_writable t table_ppn =
  for index = 0 to (page / 8) - 1 do
    let addr = Int64.add (frame_base table_ppn) (Int64.of_int (index * 8)) in
    let pte = read_shadow_pte t addr in
    if Pte.is_leaf pte then begin
      let p = Pte.perms pte in
      if p.w then write_shadow_pte t addr (Pte.with_perms pte { p with w = false })
    end
  done

let clear_all_writable t =
  Hashtbl.iter
    (fun _gfn pair ->
      if pair.pair_level = 0 then clear_table_writable t pair.shadow_ppn)
    t.pairs;
  Hashtbl.iter (fun _ ppn -> clear_table_writable t ppn) t.synthetic;
  t.needs_flush <- true

let flush_all t =
  Hashtbl.iter (fun _ pair -> ignore (Frame_alloc.decr_ref t.env.alloc pair.shadow_ppn)) t.pairs;
  Hashtbl.iter (fun _ ppn -> ignore (Frame_alloc.decr_ref t.env.alloc ppn)) t.synthetic;
  Hashtbl.reset t.pairs;
  Hashtbl.reset t.synthetic;
  Hashtbl.reset t.rmap;
  t.needs_flush <- true

let translate t ~root_gfn ~tlb ~access ~user va =
  match Hashtbl.find_opt t.pairs root_gfn with
  | None -> Cpu.xl_page
  | Some root_pair -> (
      let vpn = Int64.shift_right_logical va Arch.page_shift in
      let perms_allow (p : Pte.perms) =
        (if user then p.u else true)
        &&
        match access with
        | Arch.Fetch -> p.x
        | Arch.Load -> p.r
        | Arch.Store -> p.w
      in
      let hit =
        match Tlb.lookup tlb ~vpn with
        | Some e when perms_allow e.perms ->
            if access = Arch.Store && not e.dirty_ok then None else Some e
        | _ -> None
      in
      match hit with
      | Some e ->
          Tlb.note_hit tlb;
          Cpu.xl_frame ~ppn:e.ppn ~va ~mmio:false ~cycles:0
      | None -> (
          Tlb.note_miss tlb;
          let acc =
            {
              Page_table.read_pte = (fun pa -> read_shadow_pte t pa);
              write_pte = (fun pa v -> write_shadow_pte t pa v);
            }
          in
          match Page_table.walk acc ~root_ppn:root_pair.shadow_ppn va with
          | Error _ -> Cpu.xl_page
          | Ok { pte; refs; _ } ->
              if not (Pte.allows pte access ~user) then Cpu.xl_page
              else begin
                let perms = Pte.perms pte in
                Tlb.insert tlb
                  {
                    Tlb.vpn;
                    ppn = Pte.ppn pte;
                    perms;
                    dirty_ok = perms.w;
                    mmio = false;
                    superpage = false;
                  };
                let cost = t.env.cost in
                Cpu.xl_frame ~ppn:(Pte.ppn pte) ~va ~mmio:false
                  ~cycles:((refs * cost.Cost_model.pt_ref) + cost.Cost_model.tlb_fill)
              end))

let take_tlb_flush t =
  let f = t.needs_flush in
  t.needs_flush <- false;
  f
