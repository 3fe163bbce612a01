type packet_kind = Arrival | Drop | Depart

type tcp_kind = Timeout | Fast_retransmit | Cwnd_cut | Ecn_reaction

type queue_kind = Ecn_mark | Early_drop | Forced_drop

type event =
  | Packet of {
      time : float;
      kind : packet_kind;
      link : string;
      flow : int;
      seq : int option;
      size_bytes : int;
      uid : int;
    }
  | Tcp of { time : float; kind : tcp_kind; flow : int; cwnd : float }
  | Queue of {
      time : float;
      kind : queue_kind;
      queue : string;
      flow : int;
      avg : float;
    }
  | Custom of { time : float; name : string; value : float }

let time = function
  | Packet e -> e.time
  | Tcp e -> e.time
  | Queue e -> e.time
  | Custom e -> e.time

type subscription = int

type t = {
  mutable subs : (subscription * (event -> unit)) list; (* newest first *)
  mutable fanout : (event -> unit) array; (* subscription order *)
  mutable next_id : int;
  mutable published : int;
}

let create () = { subs = []; fanout = [||]; next_id = 0; published = 0 }

let refresh t = t.fanout <- Array.of_list (List.rev_map snd t.subs)

let subscribe t f =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.subs <- (id, f) :: t.subs;
  refresh t;
  id

let unsubscribe t id =
  t.subs <- List.filter (fun (i, _) -> i <> id) t.subs;
  refresh t

let has_subscribers t = Array.length t.fanout > 0

let publish t e =
  t.published <- t.published + 1;
  Array.iter (fun f -> f e) t.fanout

let published t = t.published

(* ------------------------------------------------------------------ *)
(* NDJSON *)

let packet_kind_label = function
  | Arrival -> "arrival"
  | Drop -> "drop"
  | Depart -> "depart"

let tcp_kind_label = function
  | Timeout -> "timeout"
  | Fast_retransmit -> "fast_retransmit"
  | Cwnd_cut -> "cwnd_cut"
  | Ecn_reaction -> "ecn_reaction"

let queue_kind_label = function
  | Ecn_mark -> "ecn_mark"
  | Early_drop -> "early_drop"
  | Forced_drop -> "forced_drop"

let to_json = function
  | Packet e ->
      Json.Obj
        [
          ("event", Json.String "packet");
          ("time", Json.Float e.time);
          ("kind", Json.String (packet_kind_label e.kind));
          ("link", Json.String e.link);
          ("flow", Json.Int e.flow);
          ("seq", (match e.seq with Some s -> Json.Int s | None -> Json.Null));
          ("bytes", Json.Int e.size_bytes);
          ("uid", Json.Int e.uid);
        ]
  | Tcp e ->
      Json.Obj
        [
          ("event", Json.String "tcp");
          ("time", Json.Float e.time);
          ("kind", Json.String (tcp_kind_label e.kind));
          ("flow", Json.Int e.flow);
          ("cwnd", Json.Float e.cwnd);
        ]
  | Queue e ->
      Json.Obj
        [
          ("event", Json.String "queue");
          ("time", Json.Float e.time);
          ("kind", Json.String (queue_kind_label e.kind));
          ("queue", Json.String e.queue);
          ("flow", Json.Int e.flow);
          ("avg", Json.Float e.avg);
        ]
  | Custom e ->
      Json.Obj
        [
          ("event", Json.String "custom");
          ("time", Json.Float e.time);
          ("name", Json.String e.name);
          ("value", Json.Float e.value);
        ]

let ( let* ) = Result.bind

let field name j =
  match Json.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let str name j =
  let* v = field name j in
  match v with
  | Json.String s -> Ok s
  | _ -> Error (Printf.sprintf "field %S: expected a string" name)

let num name j =
  let* v = field name j in
  match Json.to_float v with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "field %S: expected a number" name)

let int_field name j =
  let* v = field name j in
  match v with
  | Json.Int i -> Ok i
  | _ -> Error (Printf.sprintf "field %S: expected an integer" name)

let of_json j =
  let* event = str "event" j in
  match event with
  | "packet" ->
      let* time = num "time" j in
      let* kind_s = str "kind" j in
      let* kind =
        match kind_s with
        | "arrival" -> Ok Arrival
        | "drop" -> Ok Drop
        | "depart" -> Ok Depart
        | k -> Error (Printf.sprintf "unknown packet kind %S" k)
      in
      let* link = str "link" j in
      let* flow = int_field "flow" j in
      let* seq =
        match Json.member "seq" j with
        | Some (Json.Int s) -> Ok (Some s)
        | Some Json.Null | None -> Ok None
        | Some _ -> Error "field \"seq\": expected an integer or null"
      in
      let* size_bytes = int_field "bytes" j in
      let* uid = int_field "uid" j in
      Ok (Packet { time; kind; link; flow; seq; size_bytes; uid })
  | "tcp" ->
      let* time = num "time" j in
      let* kind_s = str "kind" j in
      let* kind =
        match kind_s with
        | "timeout" -> Ok Timeout
        | "fast_retransmit" -> Ok Fast_retransmit
        | "cwnd_cut" -> Ok Cwnd_cut
        | "ecn_reaction" -> Ok Ecn_reaction
        | k -> Error (Printf.sprintf "unknown tcp kind %S" k)
      in
      let* flow = int_field "flow" j in
      let* cwnd = num "cwnd" j in
      Ok (Tcp { time; kind; flow; cwnd })
  | "queue" ->
      let* time = num "time" j in
      let* kind_s = str "kind" j in
      let* kind =
        match kind_s with
        | "ecn_mark" -> Ok Ecn_mark
        | "early_drop" -> Ok Early_drop
        | "forced_drop" -> Ok Forced_drop
        | k -> Error (Printf.sprintf "unknown queue kind %S" k)
      in
      let* queue = str "queue" j in
      let* flow = int_field "flow" j in
      let* avg = num "avg" j in
      Ok (Queue { time; kind; queue; flow; avg })
  | "custom" ->
      let* time = num "time" j in
      let* name = str "name" j in
      let* value = num "value" j in
      Ok (Custom { time; name; value })
  | e -> Error (Printf.sprintf "unknown event type %S" e)

let to_ndjson e = Json.to_string (to_json e)

let of_ndjson_line line =
  let* j = Json.parse line in
  of_json j

let ndjson_writer oc =
  let write = Json.line_writer oc in
  fun e -> write (to_json e)
