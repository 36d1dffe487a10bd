(** Hash tables specialised to integer keys.

    The polymorphic [Hashtbl] hashes every key with [caml_hash], a C
    call that also walks a boxed [int64].  These tables hash a key to its
    own low bits instead, so a probe costs a mask and a few compares.
    The bucket index is those low bits, so keys must vary there: frame
    numbers, dense ids and slot numbers do, and so do well-mixed digests
    and MAC addresses.  Iteration order is bucket order, so it follows
    the hash: a caller whose output depends on it ([Shadow] frees its
    tables' frames in that order) relies on the hash staying as it
    is. *)

module Int : Hashtbl.S with type key = int
(** Keyed by [int]: frame numbers, VM ids, swap slots, translation
    cache keys. *)

module I64 : Hashtbl.S with type key = int64
(** Keyed by [int64], hashed on its low 63 bits: content digests, MAC
    addresses, guest PCs (which may use bit 63). *)
