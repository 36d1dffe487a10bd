(* The unchecked load, so a word is never boxed and no call is made; each
   caller has bounded its range first.  It reads native-endian, which is
   the little-endian order the digests are defined in only on a
   little-endian host. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

let () = if Sys.big_endian then failwith "Fnv needs a little-endian host"

let offset_basis = 0xCBF29CE484222325L
let prime = 0x100000001B3L

let step h byte =
  Int64.mul (Int64.logxor h (Int64.of_int (byte land 0xff))) prime

let[@inline] step64 h byte = Int64.mul (Int64.logxor h (Int64.logand byte 0xffL)) prime

(* A zero byte's step is [(h lxor 0) * prime = h * prime], so eight of
   them multiply by [prime^8] (mod 2^64): a zero word costs one multiply,
   and the digest is bit-for-bit the byte loop's. *)
let prime8 =
  let p2 = Int64.mul prime prime in
  let p4 = Int64.mul p2 p2 in
  Int64.mul p4 p4

(* One 8-byte load per 8 byte steps: the little-endian word's bytes come
   out lowest first, in the same order the byte loop would visit them.
   Checkpoint images are mostly never-written RAM, hence the zero-word
   shortcut. *)
let hash_bytes ?(pos = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - pos in
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Fnv.hash_bytes: range out of bounds";
  let h = ref offset_basis in
  let stop = pos + len in
  let i = ref pos in
  while !i + 8 <= stop do
    let w = get64u b !i in
    if Int64.equal w 0L then h := Int64.mul !h prime8
    else begin
      let x = step64 !h w in
      let x = step64 x (Int64.shift_right_logical w 8) in
      let x = step64 x (Int64.shift_right_logical w 16) in
      let x = step64 x (Int64.shift_right_logical w 24) in
      let x = step64 x (Int64.shift_right_logical w 32) in
      let x = step64 x (Int64.shift_right_logical w 40) in
      let x = step64 x (Int64.shift_right_logical w 48) in
      h := step64 x (Int64.shift_right_logical w 56)
    end;
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

(* The xor of the words at [apos + i] and [bpos + i]: zero iff equal. *)
let[@inline] differ a apos b bpos i = Int64.logxor (get64u a (apos + i)) (get64u b (bpos + i))

(* Four words per step (one test of their or-ed differences), then
   single words, then bytes: a checkpoint verifies every shared 4 KiB
   chunk this way. *)
let equal_range a apos b bpos len =
  if apos < 0 || bpos < 0 || len < 0
     || apos > Bytes.length a - len
     || bpos > Bytes.length b - len
  then invalid_arg "Fnv.equal_range: range out of bounds";
  let i = ref 0 in
  while
    !i + 32 <= len
    && Int64.logor
         (Int64.logor (differ a apos b bpos !i) (differ a apos b bpos (!i + 8)))
         (Int64.logor (differ a apos b bpos (!i + 16)) (differ a apos b bpos (!i + 24)))
       = 0L
  do
    i := !i + 32
  done;
  while !i + 8 <= len && differ a apos b bpos !i = 0L do
    i := !i + 8
  done;
  while !i < len && Bytes.unsafe_get a (apos + !i) = Bytes.unsafe_get b (bpos + !i) do
    incr i
  done;
  !i >= len
