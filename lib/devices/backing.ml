(* [data] stays empty until the first write; [len > 0] tells the two
   states apart. *)
type t = { len : int; mutable data : Bytes.t }

let create ~bytes = { len = bytes; data = Bytes.empty }
let length t = t.len
let allocated t = Bytes.length t.data > 0 || t.len = 0

let in_range t ~off ~len = off >= 0 && len >= 0 && off + len <= t.len

let writable t =
  if not (allocated t) then t.data <- Bytes.make t.len '\000';
  t.data

let sub t ~off ~len =
  if allocated t then Bytes.sub t.data off len else Bytes.make len '\000'

let sub_string t ~off ~len =
  if allocated t then Bytes.sub_string t.data off len else String.make len '\000'

let blit_from t ~off src ~pos ~len = Bytes.blit src pos (writable t) off len
let blit_from_string t ~off s = Bytes.blit_string s 0 (writable t) off (String.length s)
