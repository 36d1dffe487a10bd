open Velum_machine

type share_stats = { scanned : int; shared : int; freed : int }

(* Canonical frame for a digest, plus the owner entries that must be
   flipped to COW when a second copy appears. *)
type canonical = {
  hpa : int64;
  mutable cow_applied : bool;
  mutable first_owner : (Vm.t * int64) option; (* vm, gfn *)
}

let make_cow (vm : Vm.t) gfn hpa =
  P2m.set vm.Vm.p2m gfn (P2m.Present { hpa_ppn = hpa; writable = false; cow = true });
  (match vm.Vm.shadow with Some s -> Shadow.invalidate_gfn s gfn | None -> ());
  Vm.flush_all_tlbs vm

let share_pass vms =
  let table : (int64, canonical) Hashtbl.t = Hashtbl.create 1024 in
  let scanned = ref 0 and shared = ref 0 and freed = ref 0 in
  List.iter
    (fun (vm : Vm.t) ->
      let host = vm.Vm.host in
      P2m.iter vm.Vm.p2m ~f:(fun ~gfn entry ->
          match entry with
          | P2m.Present { hpa_ppn; cow; writable = _ } -> (
              (* every frame with a second reference is COW: sharing,
                 live capture and live restore install it that way, and
                 a COW break hands out a fresh frame *)
              assert (cow || Frame_alloc.refcount host.Host.alloc hpa_ppn = 1);
              incr scanned;
              let digest = Phys_mem.frame_hash host.Host.mem ~ppn:hpa_ppn in
              match Hashtbl.find_opt table digest with
              | None ->
                  Hashtbl.replace table digest
                    {
                      hpa = hpa_ppn;
                      cow_applied = cow;
                      first_owner = (if cow then None else Some (vm, gfn));
                    }
              | Some canon ->
                  if canon.hpa = hpa_ppn then ()
                  else if Phys_mem.frame_equal host.Host.mem canon.hpa hpa_ppn then begin
                    (* First real duplicate: retroactively COW-protect the
                       canonical owner. *)
                    if not canon.cow_applied then begin
                      (match canon.first_owner with
                      | Some (ovm, ogfn) -> make_cow ovm ogfn canon.hpa
                      | None -> ());
                      canon.cow_applied <- true
                    end;
                    Frame_alloc.incr_ref host.Host.alloc canon.hpa;
                    Vm.revoke_exec_frame vm ~ppn:hpa_ppn;
                    if Frame_alloc.decr_ref host.Host.alloc hpa_ppn then incr freed;
                    make_cow vm gfn canon.hpa;
                    incr shared
                  end)
          | _ -> ()))
    vms;
  { scanned = !scanned; shared = !shared; freed = !freed }

let shared_frames vms =
  List.fold_left
    (fun acc (vm : Vm.t) ->
      acc + P2m.count vm.Vm.p2m ~f:(function P2m.Present { cow; _ } -> cow | _ -> false))
    0 vms

let saved_frames vms =
  (* Count distinct canonical frames with refcount > 1 once. *)
  let seen = Hashtbl.create 64 in
  let saved = ref 0 in
  List.iter
    (fun (vm : Vm.t) ->
      P2m.iter vm.Vm.p2m ~f:(fun ~gfn:_ entry ->
          match entry with
          | P2m.Present { hpa_ppn; cow = true; _ } when not (Hashtbl.mem seen hpa_ppn) ->
              Hashtbl.replace seen hpa_ppn ();
              let rc = Frame_alloc.refcount vm.Vm.host.Host.alloc hpa_ppn in
              if rc > 1 then saved := !saved + (rc - 1)
          | _ -> ()))
    vms;
  !saved

let evict (vm : Vm.t) ~n =
  let host = vm.Vm.host in
  (* The hypervisor cannot see which guest pages are hot, so victims are
     a uniform random sample of the present frames — the "blind
     eviction" the balloon argument is about.  Deterministic seed per
     VM. *)
  let candidates = ref [] in
  P2m.iter vm.Vm.p2m ~f:(fun ~gfn entry ->
      match entry with
      | P2m.Present { cow = false; _ } -> candidates := gfn :: !candidates
      | _ -> ());
  let pool = Array.of_list !candidates in
  let rng = Velum_util.Rng.create ~seed:(Int64.of_int (0x5eed + vm.Vm.id)) in
  Velum_util.Rng.shuffle rng pool;
  let evicted = ref 0 in
  Array.iter
    (fun gfn ->
      if !evicted < n then
        match P2m.get vm.Vm.p2m gfn with
        | P2m.Present { hpa_ppn; cow = false; _ } ->
            let slot = Host.swap_out host ~ppn:hpa_ppn in
            Vm.revoke_exec_frame vm ~ppn:hpa_ppn;
            ignore (Frame_alloc.decr_ref host.Host.alloc hpa_ppn);
            P2m.set vm.Vm.p2m gfn (P2m.Swapped { slot });
            (match vm.Vm.shadow with Some s -> Shadow.invalidate_gfn s gfn | None -> ());
            incr evicted
        | _ -> ())
    pool;
  if !evicted > 0 then Vm.flush_all_tlbs vm;
  !evicted
