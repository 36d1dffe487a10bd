open Velum_isa

type entry = {
  vpn : int64;
  ppn : int64;
  perms : Pte.perms;
  dirty_ok : bool;
  mmio : bool;
  superpage : bool;
}

(* Two fully-associative banks with round-robin replacement: one for
   4 KiB translations keyed by vpn, one for 2 MiB translations keyed by
   vpn >> 9.  Real TLBs split similarly; determinism is what matters
   here.

   Each bank's index is a fixed-size open-addressed table of slot
   numbers ([-1] = empty) with linear probing, at least four times the
   bank's size so probe runs stay short.  Keys are vpns (below 2^52, so
   exact as [int]).  A key's home cell is the top bits of a Fibonacci
   multiply: a guest's working set is runs of consecutive vpns, which a
   low-bits hash would pack into one long probe run that every deletion
   and every miss walks.  Deletion shifts later members of the run back
   into the hole, so there are no tombstones and a lookup allocates
   nothing.  The index is never iterated, so its layout cannot leak into
   behaviour.  The live slots are also kept as a set, so a full flush
   touches only them. *)
type bank = {
  slots : entry option array;
  keys : int array;  (* key of the entry in each live slot *)
  versions : int array;
      (* per slot, bumped whenever the slot's live entry leaves: while a
         slot's version is unchanged, so is the entry it held *)
  live : int array;  (* the live slots, in [live.(0 .. n_live - 1)] *)
  live_at : int array;  (* each live slot's position in [live] *)
  mutable n_live : int;
  index : int array;
  mask : int;  (* index length - 1 *)
  shift : int;  (* int bits - log2 (index length) *)
  mutable victim : int;
}

type t = {
  small : bank;
  large : bank;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable flushes : int;
  mutable generation : int;
      (* bumped whenever an entry leaves or changes (flush, capacity
         eviction, same-vpn replacement), and when a 4 KiB fill shadows
         a live superpage entry — never on any other fill into an empty
         slot.  A consumer that cached "[probe] hits entry E" may
         keep trusting it exactly while the generation is unchanged. *)
  mutable recent : int;
      (* the 4 KiB slot last hit or filled, or -1: the micro-TLB's fill
         follows a translate for the same vpn, so [probe] and
         [cert_slot] try it, checked exactly, before searching *)
}

(* The hit rule: the access's permission bit, the user bit for user
   accesses, and for a store the hardened dirty bit. *)
let permits e access ~user =
  ((not user) || e.perms.u)
  &&
  match access with
  | Arch.Fetch -> e.perms.x
  | Arch.Load -> e.perms.r
  | Arch.Store -> e.perms.w && e.dirty_ok

let make_bank size =
  let rec index_bits b = if 1 lsl b >= 4 * size then b else index_bits (b + 1) in
  let bits = index_bits 0 in
  {
    slots = Array.make size None;
    keys = Array.make size 0;
    versions = Array.make size 0;
    live = Array.make size 0;
    live_at = Array.make size 0;
    n_live = 0;
    index = Array.make (1 lsl bits) (-1);
    mask = (1 lsl bits) - 1;
    shift = Sys.int_size - bits;
    victim = 0;
  }

let create ~size =
  if size <= 0 then invalid_arg "Tlb.create: size must be positive";
  (* the superpage bank is a quarter of the 4K bank, at least 4 entries *)
  {
    small = make_bank size;
    large = make_bank (max 4 (size / 4));
    hits = 0;
    misses = 0;
    evictions = 0;
    flushes = 0;
    generation = 0;
    recent = -1;
  }

(* Index position holding [key], or [-1].  The index always has empty
   cells, so the probe terminates. *)
let rec find_pos b key i =
  let s = b.index.(i) in
  if s < 0 then -1 else if b.keys.(s) = key then i else find_pos b key ((i + 1) land b.mask)

let home b key = (key * 0x4F1B_BCDC_BFA5_3E0B) lsr b.shift
let find b key = find_pos b key (home b key)

let rec add b slot i =
  if b.index.(i) < 0 then b.index.(i) <- slot else add b slot ((i + 1) land b.mask)

(* [hole] was just emptied: walk the rest of its probe run and move back
   every member whose home cell does not lie cyclically in (hole, j], so
   each stays reachable from its home. *)
let rec close_hole b hole j =
  let s = b.index.(j) in
  if s >= 0 then begin
    if (j - home b b.keys.(s)) land b.mask >= (j - hole) land b.mask then begin
      b.index.(hole) <- s;
      b.index.(j) <- -1;
      close_hole b j ((j + 1) land b.mask)
    end
    else close_hole b hole ((j + 1) land b.mask)
  end

let remove_pos b pos =
  b.index.(pos) <- -1;
  close_hole b pos ((pos + 1) land b.mask)

let add_live b slot =
  b.live.(b.n_live) <- slot;
  b.live_at.(slot) <- b.n_live;
  b.n_live <- b.n_live + 1

let remove_live b slot =
  let last = b.live.(b.n_live - 1) in
  let at = b.live_at.(slot) in
  b.live.(at) <- last;
  b.live_at.(last) <- at;
  b.n_live <- b.n_live - 1

let bank_lookup b key =
  let pos = find b key in
  if pos < 0 then None else b.slots.(b.index.(pos))

(* The 4 KiB slot holding [key], or -1; a hit becomes [recent]. *)
let small_slot t key =
  let b = t.small in
  let s = t.recent in
  if s >= 0 && b.keys.(s) = key && b.slots.(s) != None then s
  else begin
    let pos = find b key in
    if pos < 0 then -1
    else begin
      let s = b.index.(pos) in
      t.recent <- s;
      s
    end
  end

(* The entry serving vpn [key]: its 4 KiB entry, else its superpage's. *)
let entry_for t key =
  let s = small_slot t key in
  if s >= 0 then t.small.slots.(s) else bank_lookup t.large (key lsr Arch.vpn_bits)

let lookup t ~vpn = entry_for t (Int64.to_int vpn)

let probe t ~vpn access ~user =
  let key = Int64.to_int vpn in
  match entry_for t key with
  | Some e when permits e access ~user ->
      let ppn = Int64.to_int e.ppn in
      let frame = if e.superpage then ppn + (key land ((1 lsl Arch.vpn_bits) - 1)) else ppn in
      (frame lsl 1) lor Bool.to_int e.mmio
  | _ -> -1

let hit_frame hit = hit lsr 1
let hit_mmio hit = hit land 1 = 1
let hit_pa hit ~va =
  (hit_frame hit lsl Arch.page_shift) lor (Int64.to_int va land (Arch.page_size - 1))

(* Any removal of a live entry invalidates what consumers may have
   cached about the TLB's contents, so it counts as an eviction and
   bumps both the generation and the slot's version. *)
let evict_slot t b slot =
  match b.slots.(slot) with
  | Some _ ->
      remove_pos b (find b b.keys.(slot));
      remove_live b slot;
      b.slots.(slot) <- None;
      b.versions.(slot) <- b.versions.(slot) + 1;
      t.evictions <- t.evictions + 1;
      t.generation <- t.generation + 1
  | None -> ()

let bank_insert t b key e =
  let pos = find b key in
  let slot =
    if pos >= 0 then b.index.(pos)
    else begin
      let s = b.victim in
      b.victim <- (b.victim + 1) mod Array.length b.slots;
      evict_slot t b s;
      s
    end
  in
  evict_slot t b slot;
  b.slots.(slot) <- Some e;
  b.keys.(slot) <- key;
  add_live b slot;
  add b slot (home b key);
  slot

let insert t e =
  let key = Int64.to_int e.vpn in
  if e.superpage then ignore (bank_insert t t.large (key lsr Arch.vpn_bits) e)
  else begin
    (* a 4 KiB entry takes precedence over a live superpage entry for
       the same vpn: [probe]'s answer changes although nothing left *)
    if find t.large (key lsr Arch.vpn_bits) >= 0 then t.generation <- t.generation + 1;
    t.recent <- bank_insert t t.small key e
  end

(* Empty every live slot (an empty slot's version was bumped when its
   entry left).  A live key's index cell is in the run from its home, past
   cells already emptied: nothing moves while the runs are cleared. *)
let rec clear_cell b slot i =
  if b.index.(i) = slot then b.index.(i) <- -1 else clear_cell b slot ((i + 1) land b.mask)

let flush_bank b =
  for k = 0 to b.n_live - 1 do
    let slot = b.live.(k) in
    clear_cell b slot (home b b.keys.(slot));
    b.slots.(slot) <- None;
    b.versions.(slot) <- b.versions.(slot) + 1
  done;
  b.n_live <- 0

let flush t =
  flush_bank t.small;
  flush_bank t.large;
  t.flushes <- t.flushes + 1;
  t.generation <- t.generation + 1

let flush_key t b key =
  let pos = find b key in
  if pos >= 0 then evict_slot t b b.index.(pos)

let flush_vpn t vpn =
  let key = Int64.to_int vpn in
  flush_key t t.small key;
  flush_key t t.large (key lsr Arch.vpn_bits)

let cert_slot t ~vpn = small_slot t (Int64.to_int vpn)

let version t slot = if slot < 0 then 0 else t.small.versions.(slot)
let holds t ~slot ~version = slot >= 0 && t.small.versions.(slot) = version

let size t = Array.length t.small.slots
let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
let flushes t = t.flushes
let generation t = t.generation
let note_hit t = t.hits <- t.hits + 1
let note_miss t = t.misses <- t.misses + 1

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0;
  t.evictions <- 0;
  t.flushes <- 0
