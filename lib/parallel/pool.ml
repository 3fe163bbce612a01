(* The domain runtime: one long-lived worker team with a reusable
   barrier.

   A team pins one body per rank (rank 0 is the caller) on domains that
   stay parked between runs. A sharded PDES run is one team run whose K
   ranks meet at the barrier twice per time window, for hundreds of
   windows; a parallel sweep ([map]) is one team run whose ranks claim
   list indices. Neither spawns a domain per window or per element, and
   nothing is queued. [barrier] is a generation-counted rendezvous.

   Exception discipline: the first body to raise poisons the team
   ([aborted]), and every other member's next (or current) [barrier]
   call raises {!Team.Aborted} so all ranks unwind mid-window instead of
   deadlocking on a rendezvous that can never complete. [run] re-raises
   the original exception in the caller once every rank has unwound. *)

module Team = struct
  exception Aborted

  type t = {
    size : int;
    mutex : Mutex.t;
    cond : Condition.t;
    mutable body : (int -> unit) option; (* guarded by [mutex] *)
    mutable epoch : int; (* bumped once per [run] *)
    mutable running : int; (* ranks still inside the current body *)
    mutable barrier_phase : int;
    mutable barrier_arrived : int;
    mutable failed : (exn * Printexc.raw_backtrace) option;
    mutable aborted : bool;
    mutable shutting_down : bool;
    mutable workers : unit Domain.t array;
  }

  let record_failure t e =
    let bt = Printexc.get_raw_backtrace () in
    Mutex.lock t.mutex;
    if t.failed = None then t.failed <- Some (e, bt);
    t.aborted <- true;
    Condition.broadcast t.cond;
    Mutex.unlock t.mutex

  let finish_body t =
    Mutex.lock t.mutex;
    t.running <- t.running - 1;
    if t.running = 0 then Condition.broadcast t.cond;
    Mutex.unlock t.mutex

  let worker_loop t rank =
    let seen = ref 0 in
    let continue = ref true in
    while !continue do
      Mutex.lock t.mutex;
      while t.epoch = !seen && not t.shutting_down do
        Condition.wait t.cond t.mutex
      done;
      if t.shutting_down then begin
        Mutex.unlock t.mutex;
        continue := false
      end
      else begin
        seen := t.epoch;
        let body = Option.get t.body in
        Mutex.unlock t.mutex;
        (try body rank with
        | Aborted -> ()
        | e -> record_failure t e);
        finish_body t
      end
    done

  let create ~domains =
    if domains < 1 then invalid_arg "Team.create: domains < 1";
    let t =
      {
        size = domains;
        mutex = Mutex.create ();
        cond = Condition.create ();
        body = None;
        epoch = 0;
        running = 0;
        barrier_phase = 0;
        barrier_arrived = 0;
        failed = None;
        aborted = false;
        shutting_down = false;
        workers = [||];
      }
    in
    t.workers <-
      Array.init (domains - 1) (fun i ->
          Domain.spawn (fun () -> worker_loop t (i + 1)));
    t

  let size t = t.size

  let barrier t =
    if t.size > 1 then begin
      Mutex.lock t.mutex;
      if t.aborted then begin
        Mutex.unlock t.mutex;
        raise Aborted
      end;
      let phase = t.barrier_phase in
      t.barrier_arrived <- t.barrier_arrived + 1;
      if t.barrier_arrived = t.size then begin
        t.barrier_arrived <- 0;
        t.barrier_phase <- phase + 1;
        Condition.broadcast t.cond;
        Mutex.unlock t.mutex
      end
      else begin
        while t.barrier_phase = phase && not t.aborted do
          Condition.wait t.cond t.mutex
        done;
        let aborted = t.aborted in
        Mutex.unlock t.mutex;
        if aborted then raise Aborted
      end
    end

  let run t body =
    Mutex.lock t.mutex;
    if t.shutting_down then begin
      Mutex.unlock t.mutex;
      invalid_arg "Team.run: team is shut down"
    end;
    if t.body <> None then begin
      Mutex.unlock t.mutex;
      invalid_arg "Team.run: a run is already in progress"
    end;
    t.body <- Some body;
    t.failed <- None;
    t.aborted <- false;
    t.barrier_phase <- 0;
    t.barrier_arrived <- 0;
    t.running <- t.size;
    t.epoch <- t.epoch + 1;
    Condition.broadcast t.cond;
    Mutex.unlock t.mutex;
    (* The caller is rank 0. *)
    (try body 0 with
    | Aborted -> ()
    | e -> record_failure t e);
    finish_body t;
    Mutex.lock t.mutex;
    while t.running > 0 do
      Condition.wait t.cond t.mutex
    done;
    let error = t.failed in
    t.body <- None;
    t.failed <- None;
    Mutex.unlock t.mutex;
    match error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()

  let shutdown t =
    Mutex.lock t.mutex;
    let already = t.shutting_down in
    t.shutting_down <- true;
    Condition.broadcast t.cond;
    Mutex.unlock t.mutex;
    if not already then Array.iter Domain.join t.workers

  (* Every rank claims the next index from [next] until the inputs run
     out. A failing element is recorded (the first failure wins) and its
     rank moves on, so the body itself never raises and no rank aborts.
     Every [results] write is visible here once [run] returns: ranks
     finish their body under the team mutex. *)
  let map t f xs =
    let inputs = Array.of_list xs in
    let n = Array.length inputs in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let failed = Atomic.make None in
    run t (fun _rank ->
        let rec claim () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            (try results.(i) <- Some (f inputs.(i))
             with e ->
               let bt = Printexc.get_raw_backtrace () in
               ignore (Atomic.compare_and_set failed None (Some (e, bt))));
            claim ()
          end
        in
        claim ());
    (match Atomic.get failed with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    List.init n (fun i -> Option.get results.(i))

  let with_team ~domains f =
    let t = create ~domains in
    Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
end
