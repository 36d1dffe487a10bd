open Velum_isa

(* A micro-TLB entry mirrors one translation the backing {!Tlb} is known
   to hold: while its certificate holds, replaying the access through
   the TLB would hit — same physical address, zero cycles, one
   [note_hit] — so serving it from here is observationally identical and
   skips the full translator call chain.  [load_ok]/[store_ok] are
   learned per access kind because the hit rule gates stores on the
   dirty bit independently of read permission; an entry in the fetch
   array was learned for fetches and serves nothing else.

   The certificate is the TLB slot and version of the 4 KiB entry that
   mapped the page at fill time ({!Tlb.holds}), with the TLB generation
   as its fast path: an unchanged generation proves that no entry left
   since [gen] was recorded.  When the generation moved but the slot
   still holds the entry, [gen] is brought forward, so the next hit is
   one compare again.  A page served by a superpage entry has no slot
   ([-1]) and is certified by the generation alone.

   Every slot holds its entry from [create] on, and a fill rewrites it
   in place: a fill allocates nothing. *)
type entry = {
  mutable vpn : int;  (* -1 when empty *)
  mutable ppn : int;  (* 4 KiB frame of the translated pa *)
  mutable user : bool;
  mutable load_ok : bool;
  mutable store_ok : bool;
  mutable gen : int;  (* a Tlb.generation at which the entry was certified *)
  mutable slot : int;
  mutable version : int;
}

(* Fetch entries have their own array: in a shared one, code and data
   pages collide on the low vpn bits, and every collision makes a trace
   load side-exit.  Both arrays are direct-mapped on the low vpn bits. *)
type t = {
  tlb : Tlb.t;
  data : entry array;
  code : entry array;
  mutable hits : int;
  mutable misses : int;
  mutable fills : int;
}

let num_slots = 32
let num_code_slots = 16

let empty _ =
  { vpn = -1; ppn = 0; user = false; load_ok = false; store_ok = false; gen = 0; slot = -1; version = 0 }

let create ~tlb =
  {
    tlb;
    data = Array.init num_slots empty;
    code = Array.init num_code_slots empty;
    hits = 0;
    misses = 0;
    fills = 0;
  }

let generation t = Tlb.generation t.tlb

let[@inline] slots_for t access = match access with Arch.Fetch -> t.code | _ -> t.data
let[@inline] slot_of slots vpn = vpn land (Array.length slots - 1)

let[@inline] certified tlb e =
  let g = Tlb.generation tlb in
  e.gen = g
  || Tlb.holds tlb ~slot:e.slot ~version:e.version
     && begin
          e.gen <- g;
          true
        end

let lookup t ~access ~user vpn =
  let slots = slots_for t access in
  let e = slots.(slot_of slots vpn) in
  if
    e.vpn = vpn && e.user = user
    && (match access with
       | Arch.Load -> e.load_ok
       | Arch.Store -> e.store_ok
       | Arch.Fetch -> true)
    && certified t.tlb e
  then begin
    t.hits <- t.hits + 1;
    (* replicate the side effect the real TLB hit would have had *)
    Tlb.note_hit t.tlb;
    e.ppn
  end
  else begin
    t.misses <- t.misses + 1;
    -1
  end

(* Cache the frame the backing TLB now serves this access from, when
   {!Tlb.probe} says it serves it from RAM: the hit the translators'
   next call would take.  MMIO pages, and translations that bypassed the
   TLB entirely (bare-metal runs with paging off, whose translate path is
   already trivial), stay uncached. *)
let fill t ~access ~user ~va =
  let vpn64 = Int64.shift_right_logical va Arch.page_shift in
  match Tlb.probe t.tlb ~vpn:vpn64 access ~user with
  | hit when hit >= 0 && not (Tlb.hit_mmio hit) ->
      let vpn = Int64.to_int vpn64 and ppn = Tlb.hit_frame hit in
      let slots = slots_for t access in
      let e = slots.(slot_of slots vpn) in
      (if e.vpn = vpn && e.user = user && e.ppn = ppn && certified t.tlb e then
         match access with
         | Arch.Load -> e.load_ok <- true
         | Arch.Store -> e.store_ok <- true
         | Arch.Fetch -> ()
       else
         let slot = Tlb.cert_slot t.tlb ~vpn:vpn64 in
         e.vpn <- vpn;
         e.ppn <- ppn;
         e.user <- user;
         e.load_ok <- access = Arch.Load;
         e.store_ok <- access = Arch.Store;
         e.gen <- Tlb.generation t.tlb;
         e.slot <- slot;
         e.version <- Tlb.version t.tlb slot);
      t.fills <- t.fills + 1
  | _ -> ()

let hits t = t.hits
let misses t = t.misses
let fills t = t.fills
