let wall_clock_s = Unix.gettimeofday

(* GC counters, read via [Gc.quick_stat] (no heap traversal, cheap
   enough to bracket every run). Only differences between two readings
   are meaningful. *)
type gc_counters = {
  minor_words : float;
  promoted_words : float;
  major_collections : int;
}

let gc_zero = { minor_words = 0.; promoted_words = 0.; major_collections = 0 }

let gc_read () =
  (* On OCaml 5 [quick_stat]'s minor_words only advances at minor-GC
     boundaries, which quantises a bracketed delta by up to a whole
     young area (±256k words — enough to flip a words/event gate).
     Emptying the young area first makes the reading exact. Two minor
     collections per bracketed phase; never call this per event. *)
  Gc.minor ();
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words;
    promoted_words = s.Gc.promoted_words;
    major_collections = s.Gc.major_collections;
  }

let gc_since before =
  let now = gc_read () in
  {
    minor_words = now.minor_words -. before.minor_words;
    promoted_words = now.promoted_words -. before.promoted_words;
    major_collections = now.major_collections - before.major_collections;
  }

type phases = { mutable items : (string * float ref) list (* first-use order *) }

let phases () = { items = [] }

let slot t name =
  match List.assoc_opt name t.items with
  | Some r -> r
  | None ->
      let r = ref 0. in
      t.items <- t.items @ [ (name, r) ];
      r

let add_s t name dt = slot t name := !(slot t name) +. dt

let time t name f =
  let t0 = wall_clock_s () in
  Fun.protect ~finally:(fun () -> add_s t name (wall_clock_s () -. t0)) f

let merge_into ~into src =
  List.iter (fun (name, r) -> add_s into name !r) src.items

let duration_s t name =
  match List.assoc_opt name t.items with Some r -> !r | None -> 0.

let durations_s t = List.map (fun (name, r) -> (name, !r)) t.items

let total_s t = List.fold_left (fun acc (_, r) -> acc +. !r) 0. t.items
