(** Physical-to-machine map: a guest's view of "physical" memory.

    One entry per guest frame number (gfn).  This is the hypervisor's
    second translation dimension — what EPT/NPT hardware walks in nested
    mode and what the shadow pager folds into its leaves in shadow mode.
    Per-entry flags express the memory-management machinery:

    - [writable = false] makes guest stores fault to the VMM — used for
      dirty-page logging during live migration;
    - [cow] marks the frame as shared copy-on-write (content-based page
      sharing, snapshots) so a store fault duplicates it;
    - [Swapped] parks the contents in host swap;
    - [Ballooned] means the guest surrendered the page;
    - [Remote] means the page still lives on the migration source
      (post-copy). *)

type entry =
  | Absent  (** never populated *)
  | Present of { hpa_ppn : int64; writable : bool; cow : bool }
  | Swapped of { slot : int }
  | Ballooned
  | Remote  (** post-copy: fetch from the source on first touch *)

type t

val create : gframes:int -> t
(** [create ~gframes] — all entries [Absent].

    @raise Invalid_argument if [gframes <= 0]. *)

val gframes : t -> int
val get : t -> int64 -> entry
(** @raise Invalid_argument if the gfn is out of range. *)

val lookup : t -> int -> entry
(** [lookup t gfn] is [gfn]'s entry, [Absent] when out of range: the
    stored value itself, so a lookup allocates nothing. *)

val frame : t -> int -> int
(** [frame t gfn] is the machine frame of a [Present] gfn, else [-1]
    (out of range included): the unboxed lookup of the page walkers. *)

val set : t -> int64 -> entry -> unit
val in_range : t -> int64 -> bool

val iter : t -> f:(gfn:int64 -> entry -> unit) -> unit

val present_count : t -> int
val count : t -> f:(entry -> bool) -> int

val fold_present : t -> init:'a -> f:('a -> gfn:int64 -> hpa_ppn:int64 -> 'a) -> 'a

val clear_writable_all : t -> int
(** [clear_writable_all t] strips the writable flag from every present
    entry (start of a dirty-logging epoch); returns how many were
    changed. *)
