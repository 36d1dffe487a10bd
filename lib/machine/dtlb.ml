open Velum_isa

(* A micro-TLB entry mirrors one translation the backing {!Tlb} is known
   to hold: while its certificate holds, replaying the access through
   the TLB would hit — same physical address, zero cycles, one
   [note_hit] — so serving it from here is observationally identical and
   skips the full translator call chain.  [load_ok]/[store_ok] are
   learned per access kind because the translators gate stores on the
   dirty bit independently of read permission.

   The certificate is the TLB slot and version of the 4 KiB entry that
   mapped the page at fill time ({!Tlb.holds}), with the TLB generation
   as its fast path: an unchanged generation proves that no entry left
   since [gen] was recorded.  When the generation moved but the slot
   still holds the entry, [gen] is brought forward, so the next hit is
   one compare again.  A page served by a superpage entry has no slot
   ([-1]) and is certified by the generation alone. *)
type entry = {
  vpn : int64;
  ppn : int;  (* 4 KiB frame of the translated pa *)
  user : bool;
  mutable load_ok : bool;
  mutable store_ok : bool;
  mutable gen : int;  (* a Tlb.generation at which the entry was certified *)
  slot : int;
  version : int;
}

type t = {
  tlb : Tlb.t;
  slots : entry option array;  (* direct-mapped on the low vpn bits *)
  mutable hits : int;
  mutable misses : int;
  mutable fills : int;
}

let num_slots = 32
let slot_mask = Int64.of_int (num_slots - 1)

let create ~tlb =
  { tlb; slots = Array.make num_slots None; hits = 0; misses = 0; fills = 0 }

let backing t = t.tlb
let generation t = Tlb.generation t.tlb

let page_mask = Arch.page_size - 1
let slot_of vpn = Int64.to_int (Int64.logand vpn slot_mask)

let[@inline] certified tlb e =
  let g = Tlb.generation tlb in
  e.gen = g
  || Tlb.holds tlb ~slot:e.slot ~version:e.version
     && begin
          e.gen <- g;
          true
        end

let lookup t ~access ~user va =
  let vpn = Int64.shift_right_logical va Arch.page_shift in
  match t.slots.(slot_of vpn) with
  | Some e
    when e.vpn = vpn && e.user = user
         && (match access with
            | Arch.Load -> e.load_ok
            | Arch.Store -> e.store_ok
            | Arch.Fetch -> false)
         && certified t.tlb e ->
      t.hits <- t.hits + 1;
      (* replicate the side effect the real TLB hit would have had *)
      Tlb.note_hit t.tlb;
      (e.ppn lsl Arch.page_shift) lor (Int64.to_int va land page_mask)
  | _ ->
      t.misses <- t.misses + 1;
      -1

(* Cache a successful RAM translation, but only after verifying that the
   backing TLB now holds an entry that would satisfy this access on its
   own (permissions pass, stores find the dirty bit hardened).  The
   check is the strictest of the translators' hit predicates, so an
   entry some laxer translator would accept is merely not cached — never
   the other way round.  Translations that bypassed the TLB entirely
   (bare-metal runs with paging off) fail the probe and stay uncached;
   their translate path is already trivial. *)
let fill t ~access ~user ~va ~pa =
  let vpn = Int64.shift_right_logical va Arch.page_shift in
  match Tlb.lookup t.tlb ~vpn with
  | Some e when (not e.Tlb.mmio) && access <> Arch.Fetch && Tlb.permits e access ~user ->
      let ppn = pa lsr Arch.page_shift in
      let idx = slot_of vpn in
      (match t.slots.(idx) with
      | Some old
        when old.vpn = vpn && old.user = user && old.ppn = ppn && certified t.tlb old
        -> (
          match access with
          | Arch.Load -> old.load_ok <- true
          | Arch.Store -> old.store_ok <- true
          | Arch.Fetch -> ())
      | _ ->
          let slot = Tlb.cert_slot t.tlb ~vpn in
          t.slots.(idx) <-
            Some
              {
                vpn;
                ppn;
                user;
                load_ok = access = Arch.Load;
                store_ok = access = Arch.Store;
                gen = Tlb.generation t.tlb;
                slot;
                version = Tlb.version t.tlb slot;
              });
      t.fills <- t.fills + 1
  | _ -> ()

let hits t = t.hits
let misses t = t.misses
let fills t = t.fills
