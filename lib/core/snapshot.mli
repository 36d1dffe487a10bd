(** VM snapshots: full images, checkpoint sources, and copy-on-write
    live snapshots.

    A {e full} snapshot is a VM's memory and {!Vm_state} in one image
    that can be restored on any host (portable, sized ~ guest memory).
    The image layout is defined once: a header (magic, offset of the
    state), one record per gfn in gfn order (gfn, kind, and the page
    bytes for data pages), then the {!Vm_state} bytes — shape, vCPUs and
    device state, console included; variable-length, so last, where it
    moves no page record.  Disk contents and port bindings are not in
    the image.  {!capture} materializes it into one presized buffer;
    {!source} presents the same bytes to {!Store.commit} straight from
    the VM's frames, with no serialized image, and — given the {!hint}
    its stream's previous commit left — names the chunks whose pages
    kept their frame and were not written since, per the host's
    {!Churn} tracker.

    A {e live} snapshot instead bumps refcounts and marks the VM's
    frames copy-on-write — O(pages) metadata, O(1) data — the VM keeps
    running and pays a COW break per page it subsequently writes;
    restoring clones a VM from the shared frames. *)

type full = Bytes.t

val capture : Vm.t -> full
(** Serialize the VM (data pages, balloon/absent layout, {!Vm_state}),
    bringing swapped and remote pages back in first, in gfn order.  The VM should be quiesced (not running) for a consistent
    image.

    @raise Failure when a page cannot be brought in (the host is out of
    frames): an image with a hole is not a snapshot. *)

val image_bytes : Vm.t -> int
(** Size of the image {!capture} would produce now, from the layout
    alone: nothing is brought in or copied.  Sizes a {!Store}. *)

type hint
(** What a committed {!source} leaves for its stream's next commit: the
    generation it became, the frame behind each page, and the host
    tracker's mark at capture. *)

type source

val source : ?since:hint -> Vm.t -> (source, int64) result
(** Lay the VM out as {!capture} would — with the same swap-ins, in the
    same order — without copying a page, and take a tracker mark.
    [since] is the hint of the stream's last {e committed} generation
    (a torn commit leaves it in force); it applies only to the same VM
    object, so a VM rebuilt by restore or moved to another host starts
    unhinted.  [Error gfn]: that page could not be brought in, and there
    is nothing to checkpoint.  The VM must not run until the source is
    committed. *)

val chunks : source -> Store.source
(** The image as a store chunk source. *)

val committed : source -> gen:int -> hint
(** The hint after {!chunks} committed as stream generation [gen]. *)

val restore : Hypervisor.t -> full -> Vm.t
(** Materialize a VM from a full snapshot on the given hypervisor
    (scheduler-registered, same shape, run states and device state,
    device requests in flight due relative to this hypervisor's clock),
    without ports.

    @raise Failure on a corrupt image or when the host lacks frames.  A
    rejected image leaves no trace: every frame the partial restore
    allocated is reclaimed and no half-built VM stays registered. *)

val size_bytes : full -> int
(** Length of a captured image. *)

type live

val capture_live : Vm.t -> live
(** Mark every present frame copy-on-write and take a reference, and
    save the {!Vm_state}; the VM continues running. *)

val restore_live : Hypervisor.t -> live -> Vm.t
(** Clone a VM (named with ["-snap"] appended, without ports) sharing
    the snapshot's frames (all copy-on-write), with the saved state.
    The clone and the original diverge page by page as either writes.
    Must run on the same host as the snapshot's frames. *)

val release_live : live -> unit
(** Drop the snapshot's frame references (frames whose last reference
    this was are freed).  Restored clones keep their own references. *)

val live_pages : live -> int
