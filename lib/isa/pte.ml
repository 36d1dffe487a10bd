open Velum_util

type t = int64

let invalid = 0L

type perms = { r : bool; w : bool; x : bool; u : bool }

let bit_valid = 0
let bit_r = 1
let bit_w = 2
let bit_x = 3
let bit_u = 4
let bit_a = 5
let bit_d = 6
let ppn_lo = 10
let ppn_width = 44

let leaf ~ppn { r; w; x; u } =
  let v = Bitops.set_bit 0L bit_valid true in
  let v = Bitops.set_bit v bit_r r in
  let v = Bitops.set_bit v bit_w w in
  let v = Bitops.set_bit v bit_x x in
  let v = Bitops.set_bit v bit_u u in
  Bitops.insert v ~lo:ppn_lo ~width:ppn_width ppn

let table ~ppn =
  Bitops.insert (Bitops.set_bit 0L bit_valid true) ~lo:ppn_lo ~width:ppn_width ppn

module Word = struct
  type t = int

  let bit w i = w land (1 lsl i) <> 0
  let is_valid w = bit w bit_valid
  let is_leaf w = is_valid w && w land ((1 lsl bit_r) lor (1 lsl bit_w) lor (1 lsl bit_x)) <> 0
  let ppn w = (w lsr ppn_lo) land ((1 lsl ppn_width) - 1)
  let writable w = bit w bit_w
  let accessed w = bit w bit_a
  let dirty w = bit w bit_d
  let needs_ad w ~store = (not (accessed w)) || (store && not (dirty w))

  let allows w access ~user =
    ((not user) || bit w bit_u)
    && bit w (match access with Arch.Fetch -> bit_x | Arch.Load -> bit_r | Arch.Store -> bit_w)
end

let is_valid t = Word.is_valid (Int64.to_int t)
let is_leaf t = Word.is_leaf (Int64.to_int t)
let ppn t = Int64.of_int (Word.ppn (Int64.to_int t))

let perms t =
  {
    r = Bitops.test_bit t bit_r;
    w = Bitops.test_bit t bit_w;
    x = Bitops.test_bit t bit_x;
    u = Bitops.test_bit t bit_u;
  }

let accessed t = Bitops.test_bit t bit_a
let dirty t = Bitops.test_bit t bit_d
let set_accessed t = Bitops.set_bit t bit_a true
let set_dirty t = Bitops.set_bit t bit_d true
let clear_dirty t = Bitops.set_bit t bit_d false
let mark_ad t ~store = if store then set_dirty (set_accessed t) else set_accessed t

let with_perms t { r; w; x; u } =
  let t = Bitops.set_bit t bit_r r in
  let t = Bitops.set_bit t bit_w w in
  let t = Bitops.set_bit t bit_x x in
  Bitops.set_bit t bit_u u

let allows t access ~user = Word.allows (Int64.to_int t) access ~user
