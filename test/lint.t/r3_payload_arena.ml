(* Fixture: trips R3 only — a toplevel off-heap payload arena in the
   collective-buffer shape (plain [Flatarr.make], one flat int arena
   carved into per-rank slices).  At toplevel the slices are shared by
   every domain any caller spawns; [Exec.run] keeps the arena local to
   the run for exactly this reason. *)
let payload = Flatarr.make (16 * 4) 0

let slice rank = Flatarr.sub payload (rank * 4) 4

let par f = Domain.join (Domain.spawn f)
