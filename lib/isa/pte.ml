open Velum_util

type t = int64

let invalid = 0L

type perms = { r : bool; w : bool; x : bool; u : bool }

let pp_perms ppf p =
  let c b ch = if b then ch else '-' in
  Format.fprintf ppf "%c%c%c%c" (c p.r 'r') (c p.w 'w') (c p.x 'x') (c p.u 'u')

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

let is_valid t = Bitops.test_bit t bit_valid

let is_leaf t =
  is_valid t && (Bitops.test_bit t bit_r || Bitops.test_bit t bit_w || Bitops.test_bit t bit_x)

let ppn t = Bitops.extract t ~lo:ppn_lo ~width:ppn_width

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

let with_perms t { r; w; x; u } =
  let t = Bitops.set_bit t bit_r r in
  let t = Bitops.set_bit t bit_w w in
  let t = Bitops.set_bit t bit_x x in
  Bitops.set_bit t bit_u u

let allows t access ~user =
  let p = perms t in
  let priv_ok = if user then p.u else true in
  let kind_ok =
    match access with
    | Arch.Fetch -> p.x
    | Arch.Load -> p.r
    | Arch.Store -> p.w
  in
  priv_ok && kind_ok
