type spec = {
  op : Schedule.op;
  ranks : int;
  chunk_words : int;
  bidirectional : bool;
}

type report = {
  rings : int;
  ranks : int;
  phases : int;
  rounds : int;
  delivered : int;
  wire_words : int;
  payload_words : int;
  bytes_per_step : float;
  max_link_load : int;
  max_port_load : int;
  verified : bool;
  checksum : int;
}

let default_init ~ring ~rank ~chunk ~word =
  1 + (((ring * 1009) + (rank * 31) + (chunk * 7) + word) mod 97)
