open Velum_isa

type entry = {
  vpn : int64;
  ppn : int64;
  perms : Pte.perms;
  dirty_ok : bool;
  mmio : bool;
  superpage : bool;
}

(* Vpns are small non-negative integers, so the key's own bits are a good
   hash, and [Int64.equal] avoids the polymorphic compare and hash.  The
   TLB never iterates its index, so bucket order cannot leak into
   behaviour. *)
module Index = Hashtbl.Make (struct
  type t = int64

  let equal = Int64.equal
  let hash = Int64.to_int
end)

(* Two fully-associative banks with round-robin replacement: one for
   4 KiB translations keyed by vpn, one for 2 MiB translations keyed by
   vpn >> 9.  Real TLBs split similarly; determinism is what matters
   here. *)
type bank = {
  slots : entry option array;
  index : int Index.t;
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
         eviction, same-vpn replacement) — never on a fill into an empty
         slot.  A consumer that cached "the TLB holds entry E" may keep
         trusting it exactly while the generation is unchanged. *)
}

let make_bank size =
  { slots = Array.make size None; index = Index.create size; victim = 0 }

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
  }

let size t = Array.length t.small.slots

let super_key vpn = Int64.shift_right_logical vpn (Arch.vpn_bits)

let bank_lookup b key =
  match Index.find_opt b.index key with Some slot -> b.slots.(slot) | None -> None

let lookup t ~vpn =
  match bank_lookup t.small vpn with
  | Some _ as hit -> hit
  | None -> bank_lookup t.large (super_key vpn)

(* Any removal of a live entry invalidates what consumers may have
   cached about the TLB's contents, so it both counts as an eviction and
   bumps the generation. *)
let evict_slot t b key_of slot =
  match b.slots.(slot) with
  | Some e ->
      Index.remove b.index (key_of e.vpn);
      b.slots.(slot) <- None;
      t.evictions <- t.evictions + 1;
      t.generation <- t.generation + 1
  | None -> ()

let bank_insert t b key_of e =
  let key = key_of e.vpn in
  let slot =
    match Index.find_opt b.index key with
    | Some s -> s
    | None ->
        let s = b.victim in
        b.victim <- (b.victim + 1) mod Array.length b.slots;
        evict_slot t b key_of s;
        s
  in
  evict_slot t b key_of slot;
  b.slots.(slot) <- Some e;
  Index.replace b.index key slot

let insert t e =
  if e.superpage then bank_insert t t.large super_key e
  else bank_insert t t.small (fun v -> v) e

let flush t =
  List.iter
    (fun b ->
      Array.fill b.slots 0 (Array.length b.slots) None;
      Index.reset b.index)
    [ t.small; t.large ];
  t.flushes <- t.flushes + 1;
  t.generation <- t.generation + 1

let flush_vpn t vpn =
  (match Index.find_opt t.small.index vpn with
  | Some slot -> evict_slot t t.small (fun v -> v) slot
  | None -> ());
  match Index.find_opt t.large.index (super_key vpn) with
  | Some slot -> evict_slot t t.large super_key slot
  | None -> ()

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
