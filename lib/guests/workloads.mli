(** User-mode guest workloads (assembled at {!Abi.user_base}).

    Each builder bakes its parameters into the program as immediates and
    ends with [sys_exit] (except {!dirty_loop}, which runs forever).
    These are the microbenchmark kernels the evaluation sweeps:

    - {!cpu_spin} — pure computation; measures basic virtualization
      overhead (should be ≈0).
    - {!syscall_loop} — back-to-back null system calls; measures the
      trap-reflection tax of trap-and-emulate.
    - {!memwalk} — walks a working set of pages; TLB-miss bound, so it
      separates shadow (1-D refill) from nested (2-D refill) paging.
    - {!pt_churn} — map/unmap a page in a loop; page-table update bound,
      so it separates shadow (trapped PTE writes) from nested (direct)
      and paravirtual (batched hypercall) page-table maintenance.
    - {!blk_read} / {!vblk_read} — storage I/O through the emulated and
      the paravirtual block device.
    - {!dirty_loop} — endless store pass over a working set with a
      tunable inter-write delay: the dirty-page generator for the live
      migration experiments.
    - {!hello} — prints a message; the quickstart smoke test. *)

open Velum_isa

val cpu_spin : iters:int64 -> Asm.image

val branch_mix : iters:int64 -> Asm.image
(** A 16-bit LFSR drives data-dependent branches between several short
    blocks each iteration — the block-dispatch stress case (taken and
    fall-through edges alternate in an input-dependent order). *)

val stream_copy : words:int -> iters:int -> Asm.image
(** memcpy kernel: [iters] passes copying [words] 8-byte words from the
    bottom of the heap to a disjoint region right above it — the
    data-side translation (micro-TLB) stress case.  Requires
    [heap_pages] ≥ [2 * words / 512 + 1]. *)

val syscall_loop : count:int64 -> Asm.image

val syscall_stress : num:int64 -> count:int64 -> Asm.image
(** [count] system calls of the given number with r2 = 0 (e.g.
    [sys_gettime] to stress virtual CSR reads). *)

val memwalk : pages:int -> iters:int -> write:bool -> Asm.image
(** Requires a kernel built with [heap_pages >= pages]. *)

val pt_churn : ?batch:int -> count:int -> unit -> Asm.image
(** [count] iterations of: map [batch] pages (one syscall), store to
    each mapped page, unmap the batch (one syscall).  Larger batches
    amortize the system-call reflection cost and expose the raw
    page-table-update cost difference between paging modes. *)

val blk_read : sector:int -> count:int -> reps:int -> Asm.image
(** [reps] sequential reads of [count] sectors each into the heap
    (requires [heap_pages] ≥ the transfer size). *)

val vblk_read : sector:int -> count:int -> reps:int -> Asm.image
(** Same I/O volume through the virtio ring: each rep publishes [count]
    one-sector requests and kicks once. *)

val dirty_loop : pages:int -> delay:int -> Asm.image
(** Forever: write one word per page across [pages] heap pages, spinning
    [delay] iterations of filler between consecutive page writes. *)

val hello : ?message:string -> unit -> Asm.image

val smp_probe : Asm.image
(** Every hart writes [(hartid + 1) * 0x101] to heap slot [hartid] and
    exits — the multiprocessor-guest smoke test (requires
    [heap_pages >= 1]). *)

val echo : count:int64 -> Asm.image
(** Read [count] console input bytes (busy-polling [sys_getchar]) and
    echo each back to the console. *)

val tick_watch : ticks:int64 -> Asm.image
(** Spin until the kernel has seen [ticks] timer interrupts (requires a
    kernel built with a nonzero [timer_interval]). *)

val net_ping : message:string -> Asm.image
(** Write [message] into the heap, transmit it on the NIC, wait for a
    reply frame and print it (requires [heap_pages >= 2] and a NIC). *)

val net_echo : frames:int -> Asm.image
(** Receive [frames] frames and bounce each straight back. *)

val net_client : requests:int -> virtio_server:bool -> Asm.image
(** The request side of the application benchmark: send a sector
    number, await the 8-byte reply, [requests] times, then print 'D'
    (requires [heap_pages >= 2] and a NIC). *)

val net_server : requests:int -> virtio:bool -> Asm.image
(** The serving side: receive a sector number, read that sector from
    the emulated ([virtio = false]) or paravirtual block device, reply
    with its first 8 bytes. *)

(** {2 Virtio-net fabric workloads}

    These run on the paravirtual NIC ([Kernel.config.vnet]) behind the
    software switch.  Frames are 48 bytes of u64 fields:
    [dst; src; kind; request id; send stamp; client mac].  All three
    require [heap_pages >= 1] and announce their MAC with one broadcast
    at boot so the switch's learning table converges. *)

val vnet_client :
  my_mac:int64 ->
  lb_mac:int64 ->
  peers:int ->
  requests:int ->
  batch:int ->
  gap:int ->
  Asm.image
(** Open-loop request generator: waits (bounded) for [peers] boot
    announces so the fabric is warm, then sends [requests / batch]
    batches of [batch] stamped requests to [lb_mac], each batch staged
    with plain stores and kicked once (one VM exit per burst), draining
    replies opportunistically and spinning [gap] filler iterations
    between batches regardless of replies.  Ends with a bounded reply
    drain and exits — never hangs when link faults eat the tail of the
    replies. *)

val vnet_lb : my_mac:int64 -> backends:int64 list -> Asm.image
(** Load balancer: forwards requests round-robin across [backends] and
    routes replies back to the client MAC carried in the frame,
    batching staged descriptors and ringing one doorbell per idle
    transition.  Runs forever. *)

val vnet_backend : my_mac:int64 -> service:int -> Asm.image
(** Backend server: spins [service] iterations per request, then turns
    it into a reply to its sender.  Runs forever. *)
