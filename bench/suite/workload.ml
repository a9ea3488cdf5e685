(* What the driver hands a workload and what a workload hands back. *)

(* [seconds] bounds the measured loop; [smoke] shrinks every size and
   fixes the loop counts; [trace] turns on span recording, and with it
   the alternation of traced and untraced operations that measures the
   tracing overhead. *)
type cfg = {
  seed : int;
  seconds : float;
  smoke : bool;
  trace : Trace.t option;
}

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* One workload run.  [e2e] is the untraced metric set and [layers] the
   traced one (a workload computes both; the driver prints the one the
   run was asked for).  [exact] holds fields that repeat bit for bit at a
   fixed seed — inputs digest, checksums, counts — which compare.py
   checks for equality; [notes] are human-readable lines. *)
type result = {
  attempted : int;
  failed : int;
  failures : string list;
  e2e : metric list;
  layers : metric list;
  exact : (string * string) list;
  notes : string list;
}

(* The loop-end rule shared by every workload: keep issuing operations
   until [seconds] of loop time have passed and the minimum count is
   met (smoke runs stop at exactly the minimum). *)
let continue cfg ~started ~done_ ~min_ops =
  if cfg.smoke then done_ < min_ops
  else done_ < min_ops || Measure.s_of_ns (Measure.now_ns () - started) < cfg.seconds

(* Traced runs alternate untraced and traced operations in runs of
   [period] — a whole pass over the input pool where trials walk one —
   so both halves see the same inputs under the same conditions. *)
let traced_turn cfg ~period i = Option.is_some cfg.trace && (i / period) land 1 = 1

(* Tracing overhead: traced p50 against untraced p50, in percent. *)
let overhead_pct ~traced ~untraced =
  if Float.is_nan traced || Float.is_nan untraced || untraced <= 0. then 0.
  else 100. *. ((traced /. untraced) -. 1.)
