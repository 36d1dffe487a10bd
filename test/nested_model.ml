(* The reference 2-D walk: nested paging's walker as it was before its
   guest dimension moved onto [Page_table.walk] — its own descent over
   [int64] entries, with a [host_lookup] per table reference.  test_vmm's
   walker property runs it against [Nested.walk] on identical worlds. *)

open Velum_isa
open Velum_machine
open Velum_vmm

type t = { env : Nested.env; mutable walk_count : int }

let create env = { env; walk_count = 0 }
let walks t = t.walk_count

let page = Arch.page_size
let frame_base ppn = Int64.shift_left ppn Arch.page_shift
let page_off va = Int64.logand va (Int64.of_int (page - 1))
let gfn_of gpa = Int64.shift_right_logical gpa Arch.page_shift

let host_lookup t gfn =
  if not (P2m.in_range t.env.Nested.p2m gfn) then `Bad
  else
    match P2m.get t.env.Nested.p2m gfn with
    | P2m.Present { hpa_ppn; writable; cow } -> `Ram (hpa_ppn, writable && not cow, cow)
    | P2m.Absent -> `Bad
    | P2m.Swapped _ | P2m.Ballooned | P2m.Remote -> `Host_fault

let walk_2d t ~guest_satp ~access ~user va =
  let env = t.env in
  t.walk_count <- t.walk_count + 1;
  if not (Page_table.canonical va) then Nested.W_guest_fault
  else begin
    let refs = ref 0 in
    let host_levels = Arch.pt_levels in
    let exception Stop of Nested.walk_outcome in
    try
      let read_gpte table_gfn index =
        match host_lookup t table_gfn with
        | `Bad -> raise (Stop Nested.W_bad)
        | `Host_fault -> raise (Stop (Nested.W_host_fault { gfn = table_gfn }))
        | `Ram (hpa_ppn, _, _) ->
            refs := !refs + 1 + host_levels;
            Phys_mem.read env.Nested.mem
              (Int64.add (frame_base hpa_ppn) (Int64.of_int (index * 8)))
              Instr.W64
      in
      let write_gpte table_gfn index v =
        match host_lookup t table_gfn with
        | `Ram (_, _, true) -> raise (Stop (Nested.W_host_fault { gfn = table_gfn }))
        | `Ram (hpa_ppn, _, false) ->
            Phys_mem.write env.Nested.mem
              (Int64.add (frame_base hpa_ppn) (Int64.of_int (index * 8)))
              Instr.W64 v;
            env.Nested.mark_ad_write table_gfn
        | `Bad | `Host_fault -> ()
      in
      let finish level table_gfn index gpte =
        if not (Pte.allows gpte access ~user) then raise (Stop Nested.W_guest_fault);
        if
          level = 1
          && not (Velum_util.Bitops.is_aligned (Pte.ppn gpte) (1 lsl Arch.vpn_bits))
        then raise (Stop Nested.W_guest_fault);
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
          raise (Stop (Nested.W_mmio { gpa = Int64.logor target_base (page_off va) }));
        match host_lookup t target_gfn with
        | `Bad -> raise (Stop Nested.W_bad)
        | `Host_fault -> raise (Stop (Nested.W_host_fault { gfn = target_gfn }))
        | `Ram (hpa_ppn, host_w, _) ->
            if access = Arch.Store && not host_w then
              raise (Stop (Nested.W_host_fault { gfn = target_gfn }));
            refs := !refs + host_levels;
            let gp = Pte.perms gpte in
            let eff = { gp with w = gp.w && host_w } in
            Nested.W_ram
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
        if not (Pte.is_valid gpte) then raise (Stop Nested.W_guest_fault);
        if Pte.is_leaf gpte then
          if level <= 1 then finish level table_gfn index gpte
          else raise (Stop Nested.W_guest_fault)
        else if level = 0 then raise (Stop Nested.W_guest_fault)
        else descend (level - 1) (Pte.ppn gpte)
      in
      descend (Arch.pt_levels - 1) (Arch.satp_root_ppn guest_satp)
    with Stop o -> o
  end

let walk_bare t ~access va =
  let gpa = va in
  if Bus.is_mmio gpa then Nested.W_mmio { gpa }
  else begin
    let gfn = gfn_of gpa in
    match host_lookup t gfn with
    | `Bad -> Nested.W_bad
    | `Host_fault -> Nested.W_host_fault { gfn }
    | `Ram (hpa_ppn, host_w, _) ->
        if access = Arch.Store && not host_w then Nested.W_host_fault { gfn }
        else
          Nested.W_ram
            {
              hpa_ppn;
              perms = { Pte.r = true; w = host_w; x = true; u = true };
              dirty_ok = host_w;
              refs = Arch.pt_levels;
            }
  end

let walk t ~guest_satp ~access ~user va =
  if Arch.satp_enabled guest_satp then walk_2d t ~guest_satp ~access ~user va
  else walk_bare t ~access va
