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

(* The renderer: each event written field by field into one line of
   bytes the renderer owns, in exactly the bytes [Json.to_string
   (to_json e)] gives, with no tree. The keys of a shape are constants,
   and so is the kind label together with the key after it, so a line is
   a few constant blits around its numbers and its one name. A line is
   sized once, before its first byte: every write after that is
   unchecked. *)

let packet_kind_infix = function
  | Arrival -> {|,"kind":"arrival","link":|}
  | Drop -> {|,"kind":"drop","link":|}
  | Depart -> {|,"kind":"depart","link":|}

let tcp_kind_infix = function
  | Timeout -> {|,"kind":"timeout","flow":|}
  | Fast_retransmit -> {|,"kind":"fast_retransmit","flow":|}
  | Cwnd_cut -> {|,"kind":"cwnd_cut","flow":|}
  | Ecn_reaction -> {|,"kind":"ecn_reaction","flow":|}

let queue_kind_infix = function
  | Ecn_mark -> {|,"kind":"ecn_mark","queue":|}
  | Early_drop -> {|,"kind":"early_drop","queue":|}
  | Forced_drop -> {|,"kind":"forced_drop","queue":|}

(* The quoted, escaped form of the last string one name field carried.
   Strings are immutable, so physical equality proves the cached form
   current. A replayed run's names are its recorder's interned strings,
   one physical string per name, so each is escaped once, not per line. *)
type name = { mutable raw : string; mutable quoted : string }

let quoted n s =
  if s != n.raw then begin
    n.raw <- s;
    n.quoted <- Json.to_string (Json.String s)
  end;
  n.quoted

(* One renderer: its line and its three name caches. Each writer owns
   one, so renderers on different domains share nothing. *)
type renderer = {
  mutable line : Bytes.t;
  mutable pos : int;
  link : name;
  queue : name;
  custom : name;
}

let renderer () =
  let fresh () = { raw = ""; quoted = {|""|} } in
  {
    line = Bytes.create 256;
    pos = 0;
    link = fresh ();
    queue = fresh ();
    custom = fresh ();
  }

(* A line's constant text (under 96 bytes in every shape), its numbers
   (at most five, each at most [Json.number_bytes]) and its newline fit
   in [fixed] bytes; its one name is added on top. *)
let fixed = 96 + (5 * Json.number_bytes)

let start r ~name =
  let need = fixed + String.length name in
  if need > Bytes.length r.line then
    r.line <- Bytes.create (max need (2 * Bytes.length r.line));
  r.pos <- 0

let[@inline] text r s =
  let n = String.length s in
  Bytes.unsafe_blit_string s 0 r.line r.pos n;
  r.pos <- r.pos + n

let[@inline] int r n = r.pos <- Json.put_int r.line r.pos n
let[@inline] float r f = r.pos <- Json.put_float r.line r.pos f

let render r = function
  | Packet e ->
      let link = quoted r.link e.link in
      start r ~name:link;
      text r {|{"event":"packet","time":|};
      float r e.time;
      text r (packet_kind_infix e.kind);
      text r link;
      text r {|,"flow":|};
      int r e.flow;
      (match e.seq with
      | Some s ->
          text r {|,"seq":|};
          int r s
      | None -> text r {|,"seq":null|});
      text r {|,"bytes":|};
      int r e.size_bytes;
      text r {|,"uid":|};
      int r e.uid;
      text r "}"
  | Tcp e ->
      start r ~name:"";
      text r {|{"event":"tcp","time":|};
      float r e.time;
      text r (tcp_kind_infix e.kind);
      int r e.flow;
      text r {|,"cwnd":|};
      float r e.cwnd;
      text r "}"
  | Queue e ->
      let queue = quoted r.queue e.queue in
      start r ~name:queue;
      text r {|{"event":"queue","time":|};
      float r e.time;
      text r (queue_kind_infix e.kind);
      text r queue;
      text r {|,"flow":|};
      int r e.flow;
      text r {|,"avg":|};
      float r e.avg;
      text r "}"
  | Custom e ->
      let name = quoted r.custom e.name in
      start r ~name;
      text r {|{"event":"custom","time":|};
      float r e.time;
      text r {|,"name":|};
      text r name;
      text r {|,"value":|};
      float r e.value;
      text r "}"

let to_ndjson e =
  let r = renderer () in
  render r e;
  Bytes.sub_string r.line 0 r.pos

let of_ndjson_line line =
  let* j = Json.parse line in
  of_json j

let ndjson_writer oc =
  let r = renderer () in
  fun e ->
    render r e;
    text r "\n";
    output oc r.line 0 r.pos
