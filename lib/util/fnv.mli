(** FNV-1a hashing over byte buffers.

    Used by the memory manager for content-based page sharing: page frames
    are bucketed by their FNV-1a digest before an exact byte comparison. *)

val offset_basis : int64
(** The standard 64-bit FNV offset basis. *)

val hash_bytes : ?pos:int -> ?len:int -> Bytes.t -> int64
(** [hash_bytes ?pos ?len b] hashes [len] bytes of [b] starting at [pos]
    (defaults: the whole buffer).

    @raise Invalid_argument if the range is out of bounds. *)

val hash_string : string -> int64
(** [hash_string s] hashes all of [s]. *)

val combine : int64 -> int64 -> int64
(** [combine h v] folds the 8 bytes of [v] into running digest [h]. *)

val zero_range : Bytes.t -> int -> int -> bool
(** [zero_range b pos len] is true iff the [len] bytes of [b] from [pos]
    are all zero: {!equal_range} against zeros, reading one side.

    @raise Invalid_argument if the range is out of bounds. *)

val equal_range : Bytes.t -> int -> Bytes.t -> int -> int -> bool
(** [equal_range a apos b bpos len] is true iff the [len] bytes of [a]
    from [apos] equal those of [b] from [bpos] — the exact comparison
    that must follow a digest match before content is shared.

    @raise Invalid_argument if either range is out of bounds. *)
