(* Clock, latency samples, peak RSS, digests and failure tallies.

   Times come from the monotonic clock (nanoseconds, never stepped by
   NTP); statistics are nearest-rank percentiles over the recorded
   samples. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let ms_of_ns ns = float_of_int ns /. 1e6
let s_of_ns ns = float_of_int ns /. 1e9

(* Run [f] and return its result with the elapsed nanoseconds. *)
let timed f =
  let t0 = now_ns () in
  let x = f () in
  (x, now_ns () - t0)

(* Growable int buffer for latency samples. *)
module Samples = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 256 0; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let d = Array.make (2 * t.len) 0 in
      Array.blit t.data 0 d 0 t.len;
      t.data <- d
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let length t = t.len

  let sorted t =
    let a = Array.sub t.data 0 t.len in
    Array.sort Int.compare a;
    a

  (* Nearest-rank percentile, q in [0, 1]; nan when empty. *)
  let percentile t q =
    let a = sorted t in
    let n = Array.length a in
    if n = 0 then Float.nan
    else
      let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
      float_of_int a.(max 0 (min (n - 1) (rank - 1)))

  let p50_ms t = percentile t 0.5 /. 1e6
  let pct_us t q = percentile t q /. 1e3
end

(* Latency samples split by input stratum — the fault count of the
   trial.  The reported median is the mean of the strata's medians, so a
   mix of inputs whose costs differ does not put the median on the
   boundary between two strata, where it would jump from run to run. *)
module Strata = struct
  type t = Samples.t array

  let create k = Array.init k (fun _ -> Samples.create ())
  let add (t : t) i ns = Samples.add t.(i) ns
  let count (t : t) = Array.fold_left (fun acc s -> acc + Samples.length s) 0 t

  let p50_ms (t : t) =
    let meds =
      Array.to_list t |> List.filter (fun s -> Samples.length s > 0) |> List.map Samples.p50_ms
    in
    match meds with
    | [] -> Float.nan
    | _ -> List.fold_left ( +. ) 0. meds /. float_of_int (List.length meds)
end

let median_of floats =
  let a = Array.of_list floats in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Peak resident set size (VmHWM) in MB; the whole process's peak, so
   one workload per process makes it a per-workload figure. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> Float.nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> Float.nan
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            let v = String.sub line 6 (String.length line - 6) in
            let kb = String.trim (List.hd (String.split_on_char 'k' v)) in
            float_of_string kb /. 1024.
        | _ -> scan ()
      in
      let mb = scan () in
      close_in ic;
      mb

(* An order-sensitive 62-bit digest (FNV-style multiply-xor), used to
   fingerprint generated inputs and produced rings. *)
module Digest62 = struct
  type t = int ref

  let create () = ref 0x2545F4914F6CDD1D
  let add (h : t) x = h := (!h lxor x) * 0x100000001b3
  let add_list h l = List.iter (add h) l

  let add_array h a =
    add h (Array.length a);
    Array.iter (add h) a

  let hex (h : t) = Printf.sprintf "%016x" (!h land max_int)
end

let rings_equal a b =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri (fun i x -> if x <> b.(i) then ok := false) a;
  !ok

let digest_array a =
  let h = Digest62.create () in
  Digest62.add_array h a;
  !h

(* Failure tally shared by a workload's checks: an attempt fails once,
   however many of its checks fail; every failed check keeps its
   message. *)
module Tally = struct
  type t = {
    mutable attempted : int;
    mutable failed : int;
    mutable failed_at : int;  (** attempt number of the last failure *)
    mutable failures : string list;
  }

  let create () = { attempted = 0; failed = 0; failed_at = -1; failures = [] }
  let attempt t = t.attempted <- t.attempted + 1

  let fail t msg =
    if t.failed_at <> t.attempted then begin
      t.failed <- t.failed + 1;
      t.failed_at <- t.attempted
    end;
    t.failures <- msg :: t.failures

  let check t ok msg = if not ok then fail t (msg ())
  let failures t = List.rev t.failures
end

(* Run between operations, untimed: a full major collection, so the
   garbage of one operation (rings, arenas, message lists) never stacks
   up with the next one's in the peak RSS, whose value would otherwise
   depend on where the collector's pacing happened to fall. *)
let settle () = Gc.full_major ()

(* Set the system up repeatedly — at least 3 times, then until 3 s of
   set-up have accumulated, at most 9 times — and keep the last state.
   Returns it with the median set-up time ([setup_s]) and the peak RSS
   once set-up and warm-up are done ([setup_rss_mb]): the footprint of
   the system ready to serve, which — unlike the whole run's peak — does
   not depend on how many operations the time limit let through.
   Earlier states are dropped and collected first, so their arenas do
   not stack up in that peak. *)
let repeated_setup f =
  let times = ref [] in
  let total = ref 0 in
  let last = ref None in
  while List.length !times < 3 || (s_of_ns !total < 3. && List.length !times < 9) do
    last := None;
    settle ();
    let x, ns = timed f in
    times := s_of_ns ns :: !times;
    total := !total + ns;
    last := Some x
  done;
  (Option.get !last, median_of !times, peak_rss_mb ())
