(* Where a fabric request's latency accrues, from switch-egress
   sightings.

   Frames are 48 bytes of u64 fields: dst, src, kind (1 request,
   2 reply), request id, send stamp, client mac.  The LB and the backend
   keep id, stamp and client mac, so the four egress sightings of one
   request join on (client mac, request id):

     request at the LB port       client_lb  = t1 - stamp
     request at a backend port    lb_backend = t2 - t1
     reply at the LB port         backend_lb = t3 - t2
     reply at the client port     lb_client  = t4 - t3

   The hops telescope, so they sum to t4 - stamp: the end-to-end
   latency the untraced run measures at the client port. *)

type role = Lb | Backend | Client

let role_of_port ~backends port =
  if port = 0 then Lb else if port <= backends then Backend else Client

let names = [| "client_lb"; "lb_backend"; "backend_lb"; "lb_client" |]

type request = { stamp : int64; seen : int64 array  (** egress cycle per hop, -1 = unseen *) }
type t = (int64 * int64, request) Hashtbl.t

let create () : t = Hashtbl.create 256

let slot role kind =
  match (role, kind) with
  | Lb, 1L -> Some 0
  | Backend, 1L -> Some 1
  | Lb, 2L -> Some 2
  | Client, 2L -> Some 3
  | _ -> None

let record (t : t) role ~now frame =
  if String.length frame >= 48 then
    match slot role (String.get_int64_le frame 16) with
    | None -> ()
    | Some i ->
        let key = (String.get_int64_le frame 40, String.get_int64_le frame 24) in
        let r =
          match Hashtbl.find_opt t key with
          | Some r -> r
          | None ->
              let r =
                { stamp = String.get_int64_le frame 32; seen = Array.make 4 (-1L) }
              in
              Hashtbl.add t key r;
              r
        in
        r.seen.(i) <- now

(* Hop durations of every request seen at all four egress points, in
   (client mac, request id) order; [incomplete] counts the rest. *)
let joined (t : t) =
  let all = Hashtbl.fold (fun k r acc -> (k, r) :: acc) t [] |> List.sort compare in
  let complete, incomplete =
    List.partition (fun (_, r) -> Array.for_all (fun c -> c >= 0L) r.seen) all
  in
  let hops (_, r) =
    Array.init 4 (fun i ->
        Int64.sub r.seen.(i) (if i = 0 then r.stamp else r.seen.(i - 1)))
  in
  (List.map hops complete, List.length incomplete)

let sum hops = Array.fold_left Int64.add 0L hops
