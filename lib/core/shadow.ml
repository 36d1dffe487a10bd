open Velum_isa
open Velum_machine

type env = {
  mem : Phys_mem.t;
  alloc : Frame_alloc.t;
  cost : Cost_model.t;
  guest_frame : int -> int;
  is_ram : int -> bool;
  write_guest_pte : int64 -> Pte.t -> bool;
  resolve_read : int64 -> int64 option;
  resolve_write : int64 -> int64 option;
  host_writable : int64 -> bool;
}

(* Keys are frame numbers and slot addresses, [int]s below 2^56. *)
module Keytbl = Velum_util.Keytbl

type pair = { shadow_ppn : int; pair_level : int }

type t = {
  env : env;
  pairs : pair Keytbl.Int.t; (* guest table gfn -> shadow table page *)
  synthetic : int Keytbl.Int.t;
      (* (guest L1-table gfn lsl 9) lor index -> shadow level-0 table
         splintering a guest 2 MiB superpage into 4 KiB shadow leaves *)
  rmap : int list ref Keytbl.Int.t; (* data gfn -> shadow leaf slot addresses *)
  walk : Page_table.walk;
  read_shadow : int -> Pte.Word.t;
  mutable memo_satp : int64;
  mutable memo_root : int;
      (* the shadow root paired with [memo_satp]'s guest root, or -1;
         pairings only leave in [flush_all], which clears it *)
  mutable fill_count : int;
  mutable pt_write_count : int;
  mutable needs_flush : bool;
}

let create env =
  {
    env;
    pairs = Keytbl.Int.create 64;
    synthetic = Keytbl.Int.create 16;
    rmap = Keytbl.Int.create 256;
    walk = Page_table.scratch ();
    read_shadow = Phys_mem.read_word env.mem;
    memo_satp = 0L;
    memo_root = -1;
    fill_count = 0;
    pt_write_count = 0;
    needs_flush = false;
  }

let find_pair t gfn =
  match Keytbl.Int.find t.pairs gfn with p -> p.shadow_ppn | exception Not_found -> -1
let is_pt_gfn t gfn = Keytbl.Int.mem t.pairs (Int64.to_int gfn)

let fills t = t.fill_count
let pt_writes t = t.pt_write_count
let table_frames t = Keytbl.Int.length t.pairs + Keytbl.Int.length t.synthetic

let page = Arch.page_size
let frame_base ppn = Int64.shift_left ppn Arch.page_shift
let page_off va = Int64.logand va (Int64.of_int (page - 1))
let slot_addr table_ppn index = (table_ppn lsl Arch.page_shift) + (index * 8)

let read_shadow_pte t addr = Phys_mem.read_at t.env.mem addr Instr.W64
let write_shadow_pte t addr v = Phys_mem.write_at t.env.mem addr Instr.W64 v

(* Strip the writable bit from every shadow leaf that maps [gfn]; used
   when a data frame is promoted to a guest page-table page. *)
let strip_rmap_writable t gfn =
  match Keytbl.Int.find t.rmap gfn with
  | exception Not_found -> ()
  | slots ->
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
  let p = find_pair t gfn in
  if p >= 0 then p
  else begin
    let shadow_ppn = Int64.to_int (Frame_alloc.alloc_exn t.env.alloc) in
    Keytbl.Int.replace t.pairs gfn { shadow_ppn; pair_level = level };
    (* The frame is now a page-table page: revoke existing write
       mappings so future guest PTE updates trap. *)
    strip_rmap_writable t gfn;
    t.needs_flush <- true;
    shadow_ppn
  end

let synthetic_key table_gfn index = (table_gfn lsl Arch.vpn_bits) lor index

let ensure_synthetic t table_gfn index =
  let key = synthetic_key table_gfn index in
  match Keytbl.Int.find t.synthetic key with
  | ppn -> ppn
  | exception Not_found ->
      let ppn = Int64.to_int (Frame_alloc.alloc_exn t.env.alloc) in
      Keytbl.Int.replace t.synthetic key ppn;
      ppn

let rec mem_int x = function [] -> false | y :: l -> x = y || mem_int x l

let rmap_add t gfn addr =
  let slots =
    match Keytbl.Int.find t.rmap gfn with
    | l -> l
    | exception Not_found ->
        let l = ref [] in
        Keytbl.Int.replace t.rmap gfn l;
        l
  in
  if not (mem_int addr !slots) then slots := addr :: !slots

(* Point shadow slot [index] of [table_ppn] at the table [child]. *)
let link t table_ppn index child =
  let slot = slot_addr table_ppn index in
  let cur = t.read_shadow slot in
  if not (Pte.Word.is_valid cur) || Pte.Word.ppn cur <> child then
    write_shadow_pte t slot (Pte.table ~ppn:(Int64.of_int child))

type fill_result =
  | Filled of { cycles : int }
  | Guest_fault
  | Target_mmio of { gpa : int64 }
  | Pt_write of { gpa : int64 }
  | Bad_gpa

(* Map the guest leaf [gpte] (at guest address [gpte_gpa], host address
   [gpte_host]) for [va] into slot [index] of [leaf_ppn]. *)
let finish t ~access ~user ~va ~gpte ~gpte_gpa ~gpte_host ~target_gfn leaf_ppn index =
  let env = t.env in
  if not (Pte.Word.allows gpte access ~user) then Guest_fault
  else begin
    let target = Int64.of_int target_gfn in
    let target_gpa = Int64.logor (frame_base target) (page_off va) in
    if Bus.is_mmio (frame_base target) then Target_mmio { gpa = target_gpa }
    else if access = Arch.Store && Keytbl.Int.mem t.pairs target_gfn then
      Pt_write { gpa = target_gpa }
    else begin
      let resolved =
        if access = Arch.Store then env.resolve_write target else env.resolve_read target
      in
      match resolved with
      | None -> Bad_gpa
      | Some hpa_ppn ->
          (* Architectural A/D maintenance on the guest leaf, whole
             64-bit entry. *)
          let store = access = Arch.Store in
          let dirty = store || Pte.Word.dirty gpte in
          if Pte.Word.needs_ad gpte ~store then
            ignore
              (env.write_guest_pte (Int64.of_int gpte_gpa)
                 (Pte.mark_ad (Phys_mem.read_at env.mem gpte_host Instr.W64) ~store));
          let gp = Pte.perms (Int64.of_int gpte) in
          let w =
            gp.w && dirty
            && env.host_writable target
            && not (Keytbl.Int.mem t.pairs target_gfn)
          in
          let slot = slot_addr leaf_ppn index in
          write_shadow_pte t slot
            (Pte.set_dirty (Pte.set_accessed (Pte.leaf ~ppn:hpa_ppn { gp with w })));
          rmap_add t target_gfn slot;
          t.fill_count <- t.fill_count + 1;
          Filled { cycles = env.cost.Cost_model.emul_instr * (Arch.pt_levels + 1) }
    end
  end

(* Walk the guest tables level by level, pairing each table page and
   linking the shadow skeleton as we descend. *)
let rec descend t ~access ~user ~va level table_gfn shadow_ppn =
  let index = Page_table.vpn va ~level in
  let host = t.env.guest_frame table_gfn in
  if host < 0 then Bad_gpa
  else begin
    let gpte_gpa = slot_addr table_gfn index and gpte_host = slot_addr host index in
    let gpte = Phys_mem.read_word t.env.mem gpte_host in
    if not (Pte.Word.is_valid gpte) then Guest_fault
    else if Pte.Word.is_leaf gpte then
      if level = 0 then
        finish t ~access ~user ~va ~gpte ~gpte_gpa ~gpte_host ~target_gfn:(Pte.Word.ppn gpte)
          shadow_ppn index
      else if level = 1 && Pte.Word.ppn gpte land ((1 lsl Arch.vpn_bits) - 1) = 0
      then begin
        (* guest 2 MiB superpage: splinter into 4 KiB shadow leaves
           through a synthetic level-0 table *)
        let synth = ensure_synthetic t table_gfn index in
        link t shadow_ppn index synth;
        let vpn0 = Page_table.vpn va ~level:0 in
        finish t ~access ~user ~va ~gpte ~gpte_gpa ~gpte_host
          ~target_gfn:(Pte.Word.ppn gpte + vpn0) synth vpn0
      end
      else Guest_fault
    else if level = 0 then Guest_fault
    else begin
      let child_gfn = Pte.Word.ppn gpte in
      (* a table outside RAM is never paired: pairing takes a host frame *)
      if not (t.env.is_ram child_gfn) then Bad_gpa
      else begin
        let child_shadow = ensure_pair t child_gfn (level - 1) in
        link t shadow_ppn index child_shadow;
        descend t ~access ~user ~va (level - 1) child_gfn child_shadow
      end
    end
  end

let handle_fault t ~root_gfn ~access ~user ~va =
  if not (Page_table.canonical va) then Guest_fault
  else begin
    let root_gfn = Int64.to_int root_gfn in
    if not (t.env.is_ram root_gfn) then Bad_gpa
    else
      let root_shadow = ensure_pair t root_gfn (Arch.pt_levels - 1) in
      descend t ~access ~user ~va (Arch.pt_levels - 1) root_gfn root_shadow
  end

let emulate_pt_write t ~gpa ~value =
  if t.env.write_guest_pte gpa value then begin
    let gfn = Int64.to_int (Int64.shift_right_logical gpa Arch.page_shift) in
    let index = Int64.to_int (page_off gpa) / 8 in
    let p = find_pair t gfn in
    if p >= 0 then write_shadow_pte t (slot_addr p index) Pte.invalid;
    (* a rewritten superpage entry also drops the 4 KiB leaves splintered
       from it: the next fill re-links an empty table *)
    (match Keytbl.Int.find t.synthetic (synthetic_key gfn index) with
    | synth -> Phys_mem.frame_fill t.env.mem ~ppn:(Int64.of_int synth) '\000'
    | exception Not_found -> ());
    t.pt_write_count <- t.pt_write_count + 1;
    t.needs_flush <- true;
    true
  end
  else false

let invalidate_gfn t gfn =
  (match Keytbl.Int.find t.rmap (Int64.to_int gfn) with
  | slots ->
      List.iter (fun addr -> write_shadow_pte t addr Pte.invalid) !slots;
      slots := []
  | exception Not_found -> ());
  t.needs_flush <- true

let clear_table_writable t table_ppn =
  for index = 0 to (page / 8) - 1 do
    let addr = slot_addr table_ppn index in
    let pte = t.read_shadow addr in
    if Pte.Word.is_leaf pte && Pte.Word.writable pte then begin
      let pte = read_shadow_pte t addr in
      write_shadow_pte t addr (Pte.with_perms pte { (Pte.perms pte) with w = false })
    end
  done

let clear_all_writable t =
  Keytbl.Int.iter
    (fun _gfn pair -> if pair.pair_level = 0 then clear_table_writable t pair.shadow_ppn)
    t.pairs;
  Keytbl.Int.iter (fun _ ppn -> clear_table_writable t ppn) t.synthetic;
  t.needs_flush <- true

let flush_all t =
  let free ppn = ignore (Frame_alloc.decr_ref t.env.alloc (Int64.of_int ppn)) in
  Keytbl.Int.iter (fun _ pair -> free pair.shadow_ppn) t.pairs;
  Keytbl.Int.iter (fun _ ppn -> free ppn) t.synthetic;
  Keytbl.Int.reset t.pairs;
  Keytbl.Int.reset t.synthetic;
  Keytbl.Int.reset t.rmap;
  t.memo_root <- -1;
  t.needs_flush <- true

(* The shadow root for the guest root in [satp], or -1 when unpaired. *)
let root_of t satp =
  if t.memo_root >= 0 && Int64.equal satp t.memo_satp then t.memo_root
  else begin
    let root = find_pair t (Int64.to_int (Arch.satp_root_ppn satp)) in
    if root >= 0 then begin
      t.memo_satp <- satp;
      t.memo_root <- root
    end;
    root
  end

let translate t ~satp ~tlb ~access ~user va =
  let root = root_of t satp in
  if root < 0 then Cpu.xl_page
  else
    let vpn = Int64.shift_right_logical va Arch.page_shift in
    match Tlb.probe tlb ~vpn access ~user with
    | hit when hit >= 0 ->
        Tlb.note_hit tlb;
        Cpu.xl_hit hit ~va
    | _ ->
        Tlb.note_miss tlb;
        let w = t.walk in
        if
          Page_table.walk ~read:t.read_shadow w ~root_ppn:root va
          && Pte.Word.allows w.Page_table.pte access ~user
        then begin
          let pte = w.Page_table.pte in
          let ppn = Int64.of_int (Pte.Word.ppn pte) in
          let perms = Pte.perms (Int64.of_int pte) in
          Tlb.insert tlb
            { Tlb.vpn; ppn; perms; dirty_ok = perms.w; mmio = false; superpage = false };
          Cpu.xl_frame ~ppn ~va ~mmio:false
            ~cycles:(Cost_model.fill_cycles t.env.cost ~refs:w.Page_table.refs)
        end
        else Cpu.xl_page

let take_tlb_flush t =
  let f = t.needs_flush in
  t.needs_flush <- false;
  f
