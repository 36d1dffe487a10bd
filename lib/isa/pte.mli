(** Page-table entry format (Sv39-flavoured).

    A PTE is a 64-bit word: bit 0 valid, 1 readable, 2 writable,
    3 executable, 4 user-accessible, 5 accessed, 6 dirty; bits 10-53 hold
    the physical page number.  A valid entry with R=W=X=0 is a pointer to
    the next table level; any R/W/X bit makes it a leaf. *)

type t = int64

val invalid : t
(** The all-zero (not valid) entry. *)

type perms = { r : bool; w : bool; x : bool; u : bool }
(** Leaf permissions: readable / writable / executable /
    user-accessible. *)

val leaf : ppn:int64 -> perms -> t
(** [leaf ~ppn perms] is a valid leaf entry. *)

val table : ppn:int64 -> t
(** [table ~ppn] is a valid non-leaf entry pointing at the next level. *)

val is_valid : t -> bool
val is_leaf : t -> bool
(** [is_leaf pte] — valid and at least one of R/W/X set. *)

val ppn : t -> int64
val perms : t -> perms

val accessed : t -> bool
val dirty : t -> bool
val set_accessed : t -> t
val set_dirty : t -> t
val clear_dirty : t -> t

val mark_ad : t -> store:bool -> t
(** [mark_ad pte ~store] — [pte] with A set, and D too for a store: the
    architectural update a walk makes to the leaf it used, when
    {!Word.needs_ad} says one is due. *)

val with_perms : t -> perms -> t
(** [with_perms pte p] replaces the permission bits, keeping PPN and
    A/D. *)

val allows : t -> Arch.access -> user:bool -> bool
(** [allows pte access ~user] checks a leaf's permission bits against an
    access from user ([true]) or supervisor mode.  Supervisor may touch
    user pages (no SUM restriction in VR64). *)

(** {1 Entries as immediates}

    Every field sits below bit 54, so an entry's low 63 bits ([Int64.to_int])
    carry all of it.  Page walkers read entries this way: an [int] is never
    boxed, so a walk allocates nothing. *)
module Word : sig
  type t = int

  val is_valid : t -> bool
  val is_leaf : t -> bool
  val ppn : t -> int
  val writable : t -> bool
  val accessed : t -> bool
  val dirty : t -> bool

  val needs_ad : t -> store:bool -> bool
  (** [needs_ad w ~store] — a walk that used this leaf for the access
      must write A/D back: A is clear, or a store finds D clear. *)

  val allows : t -> Arch.access -> user:bool -> bool
  (** As {!allows} on the entry. *)
end
