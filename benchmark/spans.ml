(* Span recorder for the traced benchmark run.

   A span is one timed call into a layer, made from the benchmark's own
   code: its name, the span that was open when it started (its parent),
   and host wall-clock start and end in nanoseconds since the recorder
   was created.  Spans stay in memory and are written out once, at exit.
   A disabled recorder runs the wrapped function and records nothing, so
   the untimed path costs one branch per call. *)

type span = {
  id : int;  (** 1-based, in the order spans were opened *)
  parent : int option;
  name : string;
  workload : string;
  rep : int;
  start_ns : int;
  end_ns : int;
}

type t = {
  mutable on : bool;
  workload : string;
  origin : float;
  mutable rep : int;
  mutable next_id : int;
  mutable open_ : int list;  (** innermost first *)
  mutable closed : span list;
}

let create ~on ~workload =
  {
    on;
    workload;
    origin = Unix.gettimeofday ();
    rep = 0;
    next_id = 1;
    open_ = [];
    closed = [];
  }

let enabled t = t.on
let set_on t on = t.on <- on
let set_rep t rep = t.rep <- rep
let now_ns t = int_of_float ((Unix.gettimeofday () -. t.origin) *. 1e9)

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let parent t = match t.open_ with p :: _ -> Some p | [] -> None

let record t ~id ~parent ~name ~start_ns ~end_ns =
  t.closed <-
    { id; parent; name; workload = t.workload; rep = t.rep; start_ns; end_ns }
    :: t.closed

(* [span t name f] runs [f ()] inside a span named [name]. *)
let span t name f =
  if not t.on then f ()
  else begin
    let id = fresh_id t in
    let parent = parent t in
    t.open_ <- id :: t.open_;
    let start_ns = now_ns t in
    Fun.protect f ~finally:(fun () ->
        t.open_ <- List.tl t.open_;
        record t ~id ~parent ~name ~start_ns ~end_ns:(now_ns t))
  end

(* An interval that ended now and began at [since_ns] (a value of
   {!now_ns}), as a child of the innermost open span — how the fabric
   records each Parallel round between two [on_round] calls. *)
let interval t name ~since_ns =
  if t.on then begin
    let id = fresh_id t in
    record t ~id ~parent:(parent t) ~name ~start_ns:since_ns ~end_ns:(now_ns t)
  end

let spans t = List.sort (fun a b -> compare a.id b.id) t.closed

(* Total length of the union of [intervals] after clipping each to
   [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (s, e) ->
        let s = max s lo and e = min e hi in
        if e > s then Some (s, e) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (s, e) ->
        match cur with
        | Some (cs, ce) when s <= ce -> (total, Some (cs, max ce e))
        | Some (cs, ce) -> (total + (ce - cs), Some (s, e))
        | None -> (total, Some (s, e)))
      (0, None) clipped
  in
  match last with Some (s, e) -> total + (e - s) | None -> total

(* Self time of each span: its duration minus the part of its interval
   that its children cover.  Children of one span may overlap (spans
   from several threads), so the union is taken, not the sum. *)
let self_ns all =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Option.iter
        (fun p -> Hashtbl.add children p (s.start_ns, s.end_ns))
        s.parent)
    all;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      (s, s.end_ns - s.start_ns - covered ~lo:s.start_ns ~hi:s.end_ns kids))
    all

type layer = { lname : string; count : int; total_ns : int; self_ns : int }

(* Per-name totals in order of first appearance. *)
let by_name all =
  let order = ref [] and tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      match Hashtbl.find_opt tbl s.name with
      | Some l ->
          Hashtbl.replace tbl s.name
            {
              l with
              count = l.count + 1;
              total_ns = l.total_ns + (s.end_ns - s.start_ns);
              self_ns = l.self_ns + self;
            }
      | None ->
          order := s.name :: !order;
          Hashtbl.replace tbl s.name
            {
              lname = s.name;
              count = 1;
              total_ns = s.end_ns - s.start_ns;
              self_ns = self;
            })
    (self_ns all);
  List.rev_map (Hashtbl.find tbl) !order

let to_json s =
  Printf.sprintf
    "{\"id\":%d,\"parent\":%s,\"name\":%s,\"workload\":%s,\"rep\":%d,\"start_ns\":%d,\"end_ns\":%d}"
    s.id
    (match s.parent with Some p -> string_of_int p | None -> "null")
    (Json.escape s.name) (Json.escape s.workload) s.rep s.start_ns s.end_ns

(* One span per line, in id order whatever order they were closed in. *)
let to_jsonl all =
  String.concat ""
    (List.map
       (fun s -> to_json s ^ "\n")
       (List.sort (fun a b -> compare a.id b.id) all))
