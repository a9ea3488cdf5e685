(* Fixture: trips R3 only — a toplevel table of 32-bit cells in a file
   that uses Domain races like any other toplevel Flatarr. *)
let levels = Graphlib.Flatarr.I32.make 1024 (-1)

let level i = Int32.to_int levels.{i}

let par f = Domain.join (Domain.spawn f)
