let offset_basis = 0xCBF29CE484222325L
let prime = 0x100000001B3L

let step h byte =
  Int64.mul (Int64.logxor h (Int64.of_int (byte land 0xff))) prime

let[@inline] step64 h byte = Int64.mul (Int64.logxor h (Int64.logand byte 0xffL)) prime

(* One 8-byte load per 8 byte steps: the little-endian word's bytes come
   out lowest first, in the same order the byte loop would visit them. *)
let hash_bytes ?(pos = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - pos in
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Fnv.hash_bytes: range out of bounds";
  let h = ref offset_basis in
  let stop = pos + len in
  let i = ref pos in
  while !i + 8 <= stop do
    let w = Bytes.get_int64_le b !i in
    let x = step64 !h w in
    let x = step64 x (Int64.shift_right_logical w 8) in
    let x = step64 x (Int64.shift_right_logical w 16) in
    let x = step64 x (Int64.shift_right_logical w 24) in
    let x = step64 x (Int64.shift_right_logical w 32) in
    let x = step64 x (Int64.shift_right_logical w 40) in
    let x = step64 x (Int64.shift_right_logical w 48) in
    h := step64 x (Int64.shift_right_logical w 56);
    i := !i + 8
  done;
  for j = !i to stop - 1 do
    h := step !h (Char.code (Bytes.unsafe_get b j))
  done;
  !h

let hash_string s =
  let h = ref offset_basis in
  String.iter (fun c -> h := step !h (Char.code c)) s;
  !h

let combine h v =
  let h = ref h in
  for shift = 0 to 7 do
    h := step !h (Int64.to_int (Int64.shift_right_logical v (shift * 8)))
  done;
  !h

let equal_range a apos b bpos len =
  if apos < 0 || bpos < 0 || len < 0
     || apos + len > Bytes.length a
     || bpos + len > Bytes.length b
  then invalid_arg "Fnv.equal_range: range out of bounds";
  let rec words i =
    if i + 8 > len then bytes i
    else
      let x : int64 = Bytes.get_int64_le a (apos + i) in
      x = Bytes.get_int64_le b (bpos + i) && words (i + 8)
  and bytes i =
    i >= len || (Bytes.unsafe_get a (apos + i) = Bytes.unsafe_get b (bpos + i) && bytes (i + 1))
  in
  words 0
