(* Page-table construction over an abstract memory view, for the tests
   that build native, guest and shadow tables by hand (the guest kernel
   builds its own in guest code).  Walks go through [Page_table.walk]. *)

open Velum_isa
open Velum_machine

type accessor = {
  read_pte : int64 -> Pte.t;  (* read a PTE at a physical address *)
  write_pte : int64 -> Pte.t -> unit;
}

let entries_per_table = 1 lsl Arch.vpn_bits
let vpn = Page_table.vpn
let canonical = Page_table.canonical

let pte_addr_of ~table_ppn ~index =
  Int64.add (Int64.shift_left table_ppn Arch.page_shift) (Int64.of_int (index * 8))

(* [acc.read_pte] as a [Page_table.walk] reader *)
let reader acc pa = Int64.to_int (acc.read_pte (Int64.of_int pa))

let check_mappable va =
  if not (canonical va) then invalid_arg "Pt_build.map: non-canonical va";
  if not (Velum_util.Bitops.is_aligned va Arch.page_size) then
    invalid_arg "Pt_build.map: va not page aligned"

let map ?(level = 0) acc ~alloc ~root_ppn ~va pte =
  check_mappable va;
  if level < 0 || level > 1 then invalid_arg "Pt_build.map: bad leaf level";
  let rec go cur table_ppn =
    let index = vpn va ~level:cur in
    let addr = pte_addr_of ~table_ppn ~index in
    if cur = level then acc.write_pte addr pte
    else
      let entry = acc.read_pte addr in
      let next_ppn =
        if Pte.is_valid entry then begin
          if Pte.is_leaf entry then
            invalid_arg "Pt_build.map: intermediate entry is a leaf";
          Pte.ppn entry
        end
        else begin
          let ppn = alloc () in
          acc.write_pte addr (Pte.table ~ppn);
          ppn
        end
      in
      go (cur - 1) next_ppn
  in
  go (Arch.pt_levels - 1) root_ppn

(* [Page_table.walk] through [acc], as a result with the leaf entry read
   back whole *)
type walked = { pte : Pte.t; pte_addr : int64; level : int; refs : int }
type walk_fault = { fault_level : int; fault_refs : int; bad_pte : bool }

let walk acc ~root_ppn va =
  let w = Page_table.scratch () in
  if Page_table.walk ~read:(reader acc) w ~root_ppn:(Int64.to_int root_ppn) va then
    let pte_addr = Int64.of_int w.pte_addr in
    Ok { pte = acc.read_pte pte_addr; pte_addr; level = w.level; refs = w.refs }
  else Error { fault_level = w.level; fault_refs = w.refs; bad_pte = w.bad_pte }

let find_leaf_addr acc ~root_ppn ~va =
  match walk acc ~root_ppn va with
  | Ok { pte_addr; pte; _ } -> Some (pte_addr, pte)
  | Error _ -> None

let unmap acc ~root_ppn ~va =
  match find_leaf_addr acc ~root_ppn ~va with
  | Some (addr, _) ->
      acc.write_pte addr Pte.invalid;
      true
  | None -> false

let update_leaf acc ~root_ppn ~va ~f =
  match find_leaf_addr acc ~root_ppn ~va with
  | Some (addr, pte) ->
      acc.write_pte addr (f pte);
      true
  | None -> false

let iter_leaves acc ~root_ppn ~f =
  let rec go level table_ppn va_base =
    for index = 0 to entries_per_table - 1 do
      let addr = pte_addr_of ~table_ppn ~index in
      let pte = acc.read_pte addr in
      if Pte.is_valid pte then begin
        let step = Int64.shift_left 1L (Arch.page_shift + (level * Arch.vpn_bits)) in
        let va = Int64.add va_base (Int64.mul (Int64.of_int index) step) in
        if Pte.is_leaf pte then f ~va ~pte_addr:addr pte
        else if level > 0 then go (level - 1) (Pte.ppn pte) va
      end
    done
  in
  go (Arch.pt_levels - 1) root_ppn 0L

let count_table_pages acc ~root_ppn =
  let count = ref 1 in
  let rec go level table_ppn =
    if level > 0 then
      for index = 0 to entries_per_table - 1 do
        let pte = acc.read_pte (pte_addr_of ~table_ppn ~index) in
        if Pte.is_valid pte && not (Pte.is_leaf pte) then begin
          incr count;
          go (level - 1) (Pte.ppn pte)
        end
      done
  in
  go (Arch.pt_levels - 1) root_ppn;
  !count
