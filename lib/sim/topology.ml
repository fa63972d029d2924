module Prng = Manet_crypto.Prng

type t = {
  xs : float array;
  ys : float array;
  width : float;
  height : float;
}

let create ~n ~width ~height =
  if n <= 0 then invalid_arg "Topology.create: n <= 0";
  { xs = Array.make n 0.0; ys = Array.make n 0.0; width; height }

let random g ~n ~width ~height =
  let t = create ~n ~width ~height in
  for i = 0 to n - 1 do
    t.xs.(i) <- Prng.float g width;
    t.ys.(i) <- Prng.float g height
  done;
  t

let chain ~n ~spacing =
  let t = create ~n ~width:(float_of_int (n - 1) *. spacing +. 1.0) ~height:1.0 in
  for i = 0 to n - 1 do
    t.xs.(i) <- float_of_int i *. spacing
  done;
  t

let grid ~rows ~cols ~spacing =
  let n = rows * cols in
  let t =
    create ~n
      ~width:(float_of_int (cols - 1) *. spacing +. 1.0)
      ~height:(float_of_int (rows - 1) *. spacing +. 1.0)
  in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      let i = (r * cols) + c in
      t.xs.(i) <- float_of_int c *. spacing;
      t.ys.(i) <- float_of_int r *. spacing
    done
  done;
  t

let size t = Array.length t.xs
let width t = t.width
let height t = t.height
let position t i = (t.xs.(i), t.ys.(i))

let set_position t i (x, y) =
  t.xs.(i) <- x;
  t.ys.(i) <- y

let distance t i j =
  let dx = t.xs.(i) -. t.xs.(j) and dy = t.ys.(i) -. t.ys.(j) in
  sqrt ((dx *. dx) +. (dy *. dy))

let in_range t ~range i j = i <> j && distance t i j <= range

let neighbors t ~range i =
  let n = size t in
  let out = ref [] in
  for j = n - 1 downto 0 do
    if in_range t ~range i j then out := j :: !out
  done;
  !out

let is_connected t ~range =
  let n = size t in
  let visited = Array.make n false in
  let queue = Queue.create () in
  Queue.push 0 queue;
  visited.(0) <- true;
  let count = ref 1 in
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    List.iter
      (fun j ->
        if not visited.(j) then begin
          visited.(j) <- true;
          incr count;
          Queue.push j queue
        end)
      (neighbors t ~range i)
  done;
  !count = n

exception
  No_connected_placement of {
    n : int;
    width : float;
    height : float;
    range : float;
    attempts : int;
  }

let () =
  Printexc.register_printer (function
    | No_connected_placement { n; width; height; range; attempts } ->
        Some
          (Printf.sprintf
             "Topology.No_connected_placement (n=%d, field=%gx%g, range=%g, \
              attempts=%d): no connected placement found; enlarge the radio \
              range or shrink the field"
             n width height range attempts)
    | _ -> None)

let max_placement_attempts = 1000

let random_connected g ~n ~width ~height ~range =
  let rec attempt k =
    if k = 0 then
      raise
        (No_connected_placement
           { n; width; height; range; attempts = max_placement_attempts })
    else begin
      let t = random g ~n ~width ~height in
      if is_connected t ~range then t else attempt (k - 1)
    end
  in
  attempt max_placement_attempts
