type reader = { data : Bytes.t; mutable pos : int }

let reader data = { data; pos = 0 }
let pos r = r.pos

(* Claim the next [n] bytes; return where they start. *)
let take r n =
  if n < 0 || n > Bytes.length r.data - r.pos then failwith "truncated state";
  let at = r.pos in
  r.pos <- at + n;
  at

type io = Save of Buffer.t | Load of reader

let loading = function Save _ -> false | Load _ -> true

let i64 io v =
  match io with
  | Save b ->
      Buffer.add_int64_le b v;
      v
  | Load r -> Bytes.get_int64_le r.data (take r 8)

let int ?max io v =
  let n = Int64.to_int (i64 io (Int64.of_int v)) in
  match max with
  | Some m when loading io && (n < 0 || n > m) -> failwith "state field out of range"
  | _ -> n

let bool io v = int ~max:1 io (Bool.to_int v) = 1

let string io s =
  let n = int io (String.length s) in
  match io with
  | Save b ->
      Buffer.add_string b s;
      s
  | Load r -> Bytes.sub_string r.data (take r n) n

let bytes io dst =
  match io with
  | Save b -> Buffer.add_bytes b dst
  | Load r -> Bytes.blit r.data (take r (Bytes.length dst)) dst 0 (Bytes.length dst)

let list ?(max = max_int) io f dummy xs =
  let n = int ~max io (List.length xs) in
  match io with Save _ -> List.map f xs | Load _ -> List.init n (fun _ -> f dummy)

let ring io f dummy q =
  let xs = list ~max:(Ring.capacity q) io f dummy (Ring.to_list q) in
  if loading io then begin
    Ring.clear q;
    List.iter (fun x -> ignore (Ring.push q x)) xs
  end

let section io f =
  match io with
  | Save _ ->
      let s = Buffer.create 256 in
      Option.iter (fun f -> f (Save s)) f;
      ignore (string io (Buffer.contents s))
  | Load _ -> (
      match (string io "", f) with
      | "", _ | _, None -> ()
      | s, Some f -> f (Load (reader (Bytes.of_string s))))
