(* Each key is its own hash: a lookup boxes nothing and calls no
   [caml_hash].  The bucket index is the key's low bits, so callers pick
   keys whose low bits vary. *)

module I64 = Hashtbl.Make (struct
  type t = int64

  let equal = Int64.equal
  let hash k = Int64.to_int k land max_int
end)

module Int = Hashtbl.Make (struct
  type t = int

  let equal = Stdlib.Int.equal
  let hash k = k land max_int
end)
