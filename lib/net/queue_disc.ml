type t = Droptail of Droptail.t | Red of Red.t | Sfq of Sfq.t

let droptail ~capacity = Droptail (Droptail.create ~capacity)

let red ~rng ~pool params = Red (Red.create ~rng ~pool params)

let sfq ~pool ~capacity = Sfq (Sfq.create ~pool ~capacity ())

let set_recorder t ~recorder ~pool ~name =
  match t with
  | Droptail q -> Droptail.set_recorder q ~recorder ~pool ~name
  | Red q -> Red.set_recorder q ~recorder ~name
  | Sfq q -> Sfq.set_recorder q ~recorder ~name

let enqueue t ~now h =
  match t with
  | Droptail q ->
      (Droptail.enqueue ~now:(Sim_engine.Time.to_ns now) q h
        :> [ `Enqueued | `Dropped | `Enqueued_dropping of Packet_pool.handle ])
  | Red q ->
      (Red.enqueue q ~now h
        :> [ `Enqueued | `Dropped | `Enqueued_dropping of Packet_pool.handle ])
  | Sfq q -> Sfq.enqueue ~now:(Sim_engine.Time.to_ns now) q h

let dequeue t ~now =
  match t with
  | Droptail q -> Droptail.dequeue q
  | Red q -> Red.dequeue q ~now
  | Sfq q -> Sfq.dequeue q

let length t =
  match t with
  | Droptail q -> Droptail.length q
  | Red q -> Red.length q
  | Sfq q -> Sfq.length q

let high_water_mark t =
  match t with
  | Droptail q -> Droptail.high_water_mark q
  | Red q -> Red.high_water_mark q
  | Sfq q -> Sfq.high_water_mark q

let avg_queue t cell =
  match t with
  | Red q -> cell.(0) <- Red.avg q
  | Droptail q -> Droptail.avg_into q cell
  | Sfq q -> Sfq.avg_into q cell

let enable_avg t ~w_q =
  match t with
  | Red _ -> () (* RED's EWMA is always on *)
  | Droptail q -> Droptail.enable_avg q ~w_q
  | Sfq q -> Sfq.enable_avg q ~w_q

let set_virtual_queue t v =
  match t with
  | Red q -> Red.set_virtual_queue q v
  | Droptail _ | Sfq _ -> ()

let virtual_update t ~arrivals =
  match t with
  | Red q -> Red.virtual_update q ~arrivals
  | Droptail _ | Sfq _ -> ()
