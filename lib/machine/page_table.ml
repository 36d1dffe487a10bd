open Velum_isa

let index_mask = (1 lsl Arch.vpn_bits) - 1

let vpn va ~level =
  Int64.to_int (Int64.shift_right_logical va (Arch.page_shift + (level * Arch.vpn_bits)))
  land index_mask

let canonical va =
  Int64.shift_right_logical va Arch.va_bits = 0L

type walk = {
  mutable pte : Pte.Word.t;
  mutable pte_addr : int;
  mutable level : int;
  mutable refs : int;
  mutable bad_pte : bool;
}

let scratch () = { pte = 0; pte_addr = 0; level = 0; refs = 0; bad_pte = false }

let fault w ~level ~refs ~bad =
  w.level <- level;
  w.refs <- refs;
  w.bad_pte <- bad;
  false

(* Top level rather than local to [walk], so a walk builds no closure.
   [v] is the canonical va as an int. *)
let rec descend read w v level table_ppn refs =
  let addr =
    (table_ppn lsl Arch.page_shift)
    + (((v lsr (Arch.page_shift + (level * Arch.vpn_bits))) land index_mask) * 8)
  in
  let pte = read addr in
  let refs = refs + 1 in
  if not (Pte.Word.is_valid pte) then fault w ~level ~refs ~bad:false
  else if Pte.Word.is_leaf pte then
    (* level 1 = 2 MiB superpage, whose base frame must be aligned; no
       1 GiB pages in VR64 *)
    if level = 0 || (level = 1 && Pte.Word.ppn pte land index_mask = 0) then begin
      w.pte <- pte;
      w.pte_addr <- addr;
      w.level <- level;
      w.refs <- refs;
      w.bad_pte <- false;
      true
    end
    else fault w ~level ~refs ~bad:true
  else if level = 0 then fault w ~level ~refs ~bad:true
  else descend read w v (level - 1) (Pte.Word.ppn pte) refs

let walk ~read w ~root_ppn va =
  if not (canonical va) then fault w ~level:(Arch.pt_levels - 1) ~refs:0 ~bad:true
  else descend read w (Int64.to_int va) (Arch.pt_levels - 1) root_ppn 0

(* Physical address of [va] through a leaf found at [level]. *)
let leaf_pa ~pte ~level ~va =
  let offset_bits = Arch.page_shift + (level * Arch.vpn_bits) in
  (Pte.Word.ppn pte lsl Arch.page_shift)
  lor (Int64.to_int va land ((1 lsl offset_bits) - 1))
