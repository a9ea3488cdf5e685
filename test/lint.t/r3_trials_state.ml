(* Fixture: trips R3 only — Util.Trials.run runs this file's trial
   function on spawned domains, so its toplevel table is shared like a
   Domain.spawn caller's. *)
let seen : (int, unit) Hashtbl.t = Hashtbl.create 16

let point ~domains = Util.Trials.run ~domains ~trials:4 (fun _ i -> Hashtbl.mem seen i)
