let mask n =
  if n < 0 || n > 64 then invalid_arg "Bitops.mask: width out of range";
  if n = 64 then -1L else Int64.sub (Int64.shift_left 1L n) 1L

(* The mask is built inline rather than through [mask]: [extract] sits on
   page-walk and CSR paths, and its range check already guarantees
   [width <= 64]. *)
let extract v ~lo ~width =
  if lo < 0 || width < 0 || lo + width > 64 then
    invalid_arg "Bitops.extract: field out of range";
  let v = Int64.shift_right_logical v lo in
  if width = 64 then v else Int64.logand v (Int64.sub (Int64.shift_left 1L width) 1L)

let insert v ~lo ~width field =
  if lo < 0 || width < 0 || lo + width > 64 then
    invalid_arg "Bitops.insert: field out of range";
  let m = Int64.shift_left (mask width) lo in
  Int64.logor
    (Int64.logand v (Int64.lognot m))
    (Int64.logand (Int64.shift_left field lo) m)

let test_bit v i = Int64.logand (Int64.shift_right_logical v i) 1L = 1L

let set_bit v i b =
  let m = Int64.shift_left 1L i in
  if b then Int64.logor v m else Int64.logand v (Int64.lognot m)

let sign_extend v ~width =
  if width <= 0 || width > 64 then invalid_arg "Bitops.sign_extend: width";
  if width = 64 then v
  else
    let shift = 64 - width in
    Int64.shift_right (Int64.shift_left v shift) shift

let align_down v a = Int64.logand v (Int64.lognot (Int64.of_int (a - 1)))

let align_up v a =
  align_down (Int64.add v (Int64.of_int (a - 1))) a

let is_aligned v a = Int64.logand v (Int64.of_int (a - 1)) = 0L

let popcount v =
  let c = ref 0 in
  for i = 0 to 63 do
    if test_bit v i then incr c
  done;
  !c
