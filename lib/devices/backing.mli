(** Backing store of a simulated disk, kept as a table of extents.

    A VM carries two disks whether or not its guest touches them, and a
    fleet checkpoint store is sized for every stream it may ever hold,
    so most of a device is never written.  The store is a fixed table of
    {!extent_bytes}-byte extents; each one is allocated on its first
    write and reads as zeros until then — what a freshly zero-filled
    store would return.  An unwritten disk costs only its table, and a
    written byte costs the extent that holds it.

    Every operation walks the extents its range touches.  Each checks
    its own range (without overflow) and raises [Invalid_argument] when
    it is out of bounds; devices check first so they can report their
    own errors. *)

type t

val extent_bytes : int
(** Allocation unit: 64 KiB.  The last extent of a store whose size is
    not a multiple of it is shorter. *)

val create : bytes:int -> t
(** A zero-filled store of [bytes] bytes; allocates no extent yet. *)

val length : t -> int
(** Capacity in bytes, however much of it is resident. *)

val resident_bytes : t -> int
(** Bytes held in memory: the total size of the extents written so far. *)

val resident_digest : t -> int64
(** FNV-1a fold of every written extent's index and bytes, in extent
    order: equal for two stores whose writes left the same bytes in the
    same extents. *)

val copy : t -> t
(** An independent store with the same contents; copies only the
    written extents. *)

val in_range : t -> off:int -> len:int -> bool
(** [off .. off+len-1] lies within the store ([len >= 0]). *)

val sub : t -> off:int -> len:int -> Bytes.t
(** A fresh copy of [len] bytes from [off]; allocates only the result. *)

val sub_string : t -> off:int -> len:int -> string

val equal_by : t -> off:int -> len:int -> (Bytes.t -> int -> int -> int -> bool) -> bool
(** [equal_by t ~off ~len eq] — [eq e eoff p n] holds for each span of
    the [len] stored bytes from [off], taken in order: [n] bytes at
    [eoff] in [e], which are bytes [p .. p+n-1] of the range.  [e] is a
    read-only view of the extent that holds them (an unwritten extent is
    viewed as zeros); the walk stops at the first span [eq] refuses.  A
    range of at most {!extent_bytes} bytes has one or two spans.  It
    compares stored bytes with bytes that are not in one buffer — a
    live VM's frames — without copying either side. *)

val equal_range : t -> off:int -> Bytes.t -> pos:int -> len:int -> bool
(** [equal_range t ~off b ~pos ~len] — the [len] stored bytes from [off]
    equal [b]'s from [pos]; compared in place, without a copy (an
    unwritten extent is compared against zeros). *)

val blit_from : t -> off:int -> Bytes.t -> pos:int -> len:int -> unit
(** [blit_from t ~off src ~pos ~len] copies [len] bytes of [src] from
    [pos] into the store at [off], allocating the extents it touches. *)

val copy_within : t -> src:int -> dst:int -> len:int -> unit
(** [copy_within t ~src ~dst ~len] copies the [len] stored bytes from
    [src] to [dst] extent to extent, through no intermediate buffer,
    allocating the extents the destination touches.

    @raise Invalid_argument if either range is out of bounds or the two
    overlap. *)

val blit_from_string : t -> off:int -> string -> unit
