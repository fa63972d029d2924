(* In-memory span recorder for the traced run.

   Spans are opened by the benchmark around its own calls into the
   library (pass, plane, create, bootstrap, run, export); each records
   its name, parent, start and end on the monotonic clock.  Nothing is
   written until the benchmark ends. *)

module Mono_clock = Manetsec.Sim.Mono_clock
module Json = Manetsec.Obs_json

type span = { id : int; parent : int; name : string; t0 : float; t1 : float }

type t = {
  origin : float;
  mutable stack : int list;
  mutable next : int;
  mutable closed : span list;
}

let create () = { origin = Mono_clock.now_s (); stack = []; next = 0; closed = [] }

let within t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let t0 = Mono_clock.now_s () in
  Fun.protect
    ~finally:(fun () ->
      let t1 = Mono_clock.now_s () in
      t.stack <- List.tl t.stack;
      t.closed <- { id; parent; name; t0; t1 } :: t.closed)
    f

let spans t = List.sort (fun a b -> Int.compare a.id b.id) t.closed

(* A span's self time: its duration minus what its direct children
   cover (children never overlap; they nest on one domain). *)
let self_s t sp =
  List.fold_left
    (fun acc c -> if c.parent = sp.id then acc -. (c.t1 -. c.t0) else acc)
    (sp.t1 -. sp.t0) t.closed

let to_json t sp =
  Json.Obj
    [
      ("span", Json.Int sp.id);
      ("parent", Json.Int sp.parent);
      ("name", Json.String sp.name);
      ("start_s", Json.Float (sp.t0 -. t.origin));
      ("end_s", Json.Float (sp.t1 -. t.origin));
      ("self_s", Json.Float (self_s t sp));
    ]
