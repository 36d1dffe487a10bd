type entry =
  | Absent
  | Present of { hpa_ppn : int64; writable : bool; cow : bool }
  | Swapped of { slot : int }
  | Ballooned
  | Remote

type t = { entries : entry array }

let create ~gframes =
  if gframes <= 0 then invalid_arg "P2m.create: gframes must be positive";
  { entries = Array.make gframes Absent }

let gframes t = Array.length t.entries

let in_range t gfn = gfn >= 0L && gfn < Int64.of_int (Array.length t.entries)

let check t gfn =
  if not (in_range t gfn) then
    invalid_arg (Printf.sprintf "P2m: gfn %Ld out of range" gfn)

let get t gfn =
  check t gfn;
  t.entries.(Int64.to_int gfn)

let lookup t gfn = if gfn < 0 || gfn >= Array.length t.entries then Absent else t.entries.(gfn)

let frame t gfn = match lookup t gfn with Present { hpa_ppn; _ } -> Int64.to_int hpa_ppn | _ -> -1

let set t gfn e =
  check t gfn;
  t.entries.(Int64.to_int gfn) <- e

let iter t ~f =
  Array.iteri (fun i e -> f ~gfn:(Int64.of_int i) e) t.entries

let count t ~f = Array.fold_left (fun acc e -> if f e then acc + 1 else acc) 0 t.entries

let present_count t = count t ~f:(function Present _ -> true | _ -> false)

let fold_present t ~init ~f =
  let acc = ref init in
  Array.iteri
    (fun i e ->
      match e with
      | Present { hpa_ppn; _ } -> acc := f !acc ~gfn:(Int64.of_int i) ~hpa_ppn
      | _ -> ())
    t.entries;
  !acc

let clear_writable_all t =
  let changed = ref 0 in
  Array.iteri
    (fun i e ->
      match e with
      | Present ({ writable = true; _ } as p) ->
          t.entries.(i) <- Present { p with writable = false };
          incr changed
      | _ -> ())
    t.entries;
  !changed
