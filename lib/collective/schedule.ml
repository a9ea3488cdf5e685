type op = Reduce_scatter | All_gather | Allreduce

let op_to_string = function
  | Reduce_scatter -> "reduce-scatter"
  | All_gather -> "all-gather"
  | Allreduce -> "allreduce"

(* Short form first: a printer that maps an op back to its last name in
   the list (cmdliner's [Arg.enum] does) then shows the {!op_to_string}
   name. *)
let op_names =
  [
    ("rs", Reduce_scatter); ("reduce-scatter", Reduce_scatter); ("ag", All_gather);
    ("all-gather", All_gather); ("ar", Allreduce); ("allreduce", Allreduce);
  ]

let check_ranks ranks =
  if ranks < 2 then invalid_arg "Schedule: ranks must be >= 2"

let phases op ~ranks =
  check_ranks ranks;
  match op with
  | Reduce_scatter | All_gather -> ranks - 1
  | Allreduce -> 2 * (ranks - 1)

(* (x mod m + m) mod m without the double division: rank − phase can
   only be negative by at most [phases] < 2·ranks, so two conditional
   adds suffice. *)
let modp x m =
  let x = if x < 0 then x + m else x in
  let x = if x < 0 then x + m else x in
  x mod m

let send_chunk ~ranks ~rank ~phase = modp (rank - phase) ranks
let recv_chunk ~ranks ~rank ~phase = modp (rank - phase - 1) ranks

let reduces op ~ranks ~phase =
  match op with
  | Reduce_scatter -> true
  | All_gather -> false
  | Allreduce -> phase < ranks - 1

let owned_chunk ~ranks ~rank = (rank + 1) mod ranks

let boundaries ~ranks ~length =
  check_ranks ranks;
  if ranks > length then invalid_arg "Schedule.boundaries: ranks > ring length";
  Array.init ranks (fun j -> j * length / ranks)

let segment_messages op ~ranks = phases op ~ranks

let payload_words op ~ranks ~chunk_words =
  ignore (phases op ~ranks);
  ranks * chunk_words

(* ------------------------------------------------------------------ *)
(* Rank-space reference executor: phase-synchronous loops over heap
   buffers.  All-gather starts from per-rank ownership (chunk r live at
   rank r, the rest zero); the reducing operations start from the full
   init everywhere. *)

let simulate op ~ranks ~chunk_words ~init =
  let ph = phases op ~ranks in
  if chunk_words < 1 then invalid_arg "Schedule.simulate: chunk_words < 1";
  let buf =
    Array.init ranks (fun r ->
        Array.init (ranks * chunk_words) (fun i ->
            let chunk = i / chunk_words and word = i mod chunk_words in
            match op with
            | All_gather -> if chunk = r then init ~rank:r ~chunk ~word else 0
            | Reduce_scatter | Allreduce -> init ~rank:r ~chunk ~word))
  in
  (* Rank r's in-flight chunk occupies row r, refilled every phase. *)
  let in_flight = Array.make (ranks * chunk_words) 0 in
  for phase = 0 to ph - 1 do
    (* Sends are read out of the phase-start buffers before any receive
       lands, exactly like the message-passing execution. *)
    for r = 0 to ranks - 1 do
      let c = send_chunk ~ranks ~rank:r ~phase in
      Array.blit buf.(r) (c * chunk_words) in_flight (r * chunk_words)
        chunk_words
    done;
    let red = reduces op ~ranks ~phase in
    for r = 0 to ranks - 1 do
      let from = (r - 1 + ranks) mod ranks in
      let c = recv_chunk ~ranks ~rank:r ~phase in
      let row = buf.(r) in
      for w = 0 to chunk_words - 1 do
        let i = (c * chunk_words) + w in
        let data = in_flight.((from * chunk_words) + w) in
        row.(i) <- (if red then row.(i) + data else data)
      done
    done
  done;
  buf
