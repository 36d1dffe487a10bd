(** Backing store of a simulated disk, allocated on first write.

    A VM carries two disks whether or not its guest touches them, so the
    bytes are only allocated when something is written.  Until then every
    read returns zeros — what a freshly zero-filled store would return.
    Range checks are the caller's: each device reports its own errors. *)

type t

val create : bytes:int -> t
(** A zero-filled store of [bytes] bytes; allocates nothing yet. *)

val length : t -> int
(** Capacity in bytes, whether or not the store is allocated. *)

val allocated : t -> bool
(** Whether the bytes exist yet (they do after the first write). *)

val in_range : t -> off:int -> len:int -> bool
(** [off .. off+len-1] lies within the store ([len >= 0]). *)

val sub : t -> off:int -> len:int -> Bytes.t
(** A fresh copy of [len] bytes from [off]. *)

val sub_string : t -> off:int -> len:int -> string

val equal_range : t -> off:int -> Bytes.t -> pos:int -> len:int -> bool
(** [equal_range t ~off b ~pos ~len] — the [len] stored bytes from [off]
    equal [b]'s from [pos]; compared in place, without a copy. *)

val blit_from : t -> off:int -> Bytes.t -> pos:int -> len:int -> unit
(** [blit_from t ~off src ~pos ~len] copies [len] bytes of [src] from
    [pos] into the store at [off]. *)

val blit_from_string : t -> off:int -> string -> unit
