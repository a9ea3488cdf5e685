(* Reproduction of the thesis's tables.

   Tables 2.1/2.2: size of the component containing R = 0…01 and the
   eccentricity of R, under f randomly distributed faulty necklaces, in
   B(2,10) and B(4,5).  The thesis does not give its RNG or trial count;
   we use a seeded splitmix64 and 200 trials per row, which reproduces
   the shape (and the deterministic dⁿ − nf column exactly).

   Tables 3.1/3.2: the ψ(d) and MAX(ψ(d)−1, φ(d)) functions — exact. *)

module W = Debruijn.Word
module B = Ffc.Bstar

let hr = String.make 78 '-'

(* eccentricity of [node] within its (strongly connected) component *)
let ecc_of (b : B.t) node =
  Graphlib.Itopo.eccentricity ~n:b.B.p.W.size
    ~succs:(fun x f -> W.iter_succs b.B.p x f)
    ~keep:(fun v -> b.B.in_bstar.{v} <> 0)
    node

(* R = 0…01, replaced by a live neighbor when its necklace is faulty. *)
let observation_point p faults =
  let faulty = Debruijn.Necklace.mark_faulty_necklaces p faults in
  let r = 1 (* 0…01 *) in
  if not faulty.(r) then Some r
  else
    List.find_opt
      (fun v -> not faulty.(v))
      (W.successors p r @ W.predecessors p r)

let simulate_row p rng ~f ~trials =
  let sizes = ref [] and eccs = ref [] in
  let completed = ref 0 in
  while !completed < trials do
    let faults = Util.Rng.sample_distinct rng ~k:f ~bound:p.W.size in
    match Option.bind (observation_point p faults) (fun r -> B.component_of p ~faults r) with
    | None -> ()  (* the observation point itself died; resample *)
    | Some b ->
        let r =
          match observation_point p faults with Some r -> r | None -> assert false
        in
        sizes := b.B.size :: !sizes;
        eccs := ecc_of b r :: !eccs;
        incr completed
  done;
  let stats xs =
    let n = List.length xs in
    let sum = List.fold_left ( + ) 0 xs in
    ( float_of_int sum /. float_of_int n,
      List.fold_left max min_int xs,
      List.fold_left min max_int xs )
  in
  (stats !sizes, stats !eccs)

let node_fault_table ~d ~n ~seed ~trials ~paper_avg_size =
  let p = W.params ~d ~n in
  let rng = Util.Rng.create seed in
  Printf.printf "%6s %10s %9s %9s %9s | %8s %8s %8s | %10s\n" "f" "Avg.Size"
    "Max.Size" "Min.Size" "d^n-nf" "Avg.Ecc" "Max.Ecc" "Min.Ecc" "paperAvg";
  List.iter
    (fun f ->
      let (avg_s, max_s, min_s), (avg_e, max_e, min_e) = simulate_row p rng ~f ~trials in
      let paper =
        match List.assoc_opt f paper_avg_size with
        | Some v -> Printf.sprintf "%10.2f" v
        | None -> Printf.sprintf "%10s" "-"
      in
      Printf.printf "%6d %10.2f %9d %9d %9d | %8.2f %8d %8d | %s\n" f avg_s max_s min_s
        (p.W.size - (n * f))
        avg_e max_e min_e paper)
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 20; 30; 40; 50 ]

let table_2_1 () =
  print_endline hr;
  print_endline
    "TABLE 2.1 - component of R = 0000000001 and ecc(R) in B(2,10), f random faulty";
  print_endline "necklaces (200 seeded trials per row; 'paperAvg' = thesis Avg.Size column)";
  print_endline hr;
  node_fault_table ~d:2 ~n:10 ~seed:20101 ~trials:200
    ~paper_avg_size:
      [ (0, 1024.00); (1, 1014.13); (2, 1004.48); (3, 994.66); (4, 985.03);
        (5, 975.79); (6, 966.35); (7, 956.61); (8, 948.41); (9, 938.02);
        (10, 928.97); (20, 843.14); (30, 762.55); (40, 686.16); (50, 622.75) ]

let table_2_2 () =
  print_endline hr;
  print_endline
    "TABLE 2.2 - component of R = 00001 and ecc(R) in B(4,5), f random faulty";
  print_endline "necklaces (200 seeded trials per row; 'paperAvg' = thesis Avg.Size column)";
  print_endline hr;
  node_fault_table ~d:4 ~n:5 ~seed:4501 ~trials:200
    ~paper_avg_size:
      [ (0, 1024.00); (1, 1019.00); (2, 1014.07); (3, 1009.24); (4, 1004.35);
        (5, 999.33); (6, 994.47); (7, 989.66); (8, 984.80); (9, 979.79);
        (10, 975.07); (20, 928.14); (30, 882.88); (40, 840.39); (50, 798.07) ]

let paper_psi =
  [ (2, 1); (3, 1); (4, 3); (5, 2); (6, 1); (7, 3); (8, 7); (9, 4); (10, 2);
    (11, 5); (12, 3); (13, 7); (14, 3); (15, 2); (16, 15); (17, 9); (18, 4);
    (19, 9); (20, 6); (21, 3); (22, 5); (23, 11); (24, 7); (25, 12); (26, 7);
    (27, 13); (28, 9); (29, 15); (30, 2); (31, 15); (32, 31); (33, 5);
    (34, 9); (35, 6); (36, 12); (37, 19); (38, 9) ]

let table_3_1 () =
  print_endline hr;
  print_endline "TABLE 3.1 - psi(d), the number of disjoint Hamiltonian cycles, 2 <= d <= 38";
  print_endline "('constructed' = cycles actually built and verified disjoint, for d^2 <= 200)";
  print_endline hr;
  Printf.printf "%4s %8s %8s %6s %14s\n" "d" "psi(d)" "paper" "match" "constructed";
  List.iter
    (fun (d, paper) ->
      let psi = Dhc.Psi.psi d in
      let constructed =
        if d * d <= 200 then begin
          let p = W.params ~d ~n:2 in
          let hcs = Dhc.Compose.disjoint_hamiltonian_cycles ~d ~n:2 in
          let cycles = List.map (Debruijn.Sequence.cycle_of_sequence p) hcs in
          let ok =
            List.for_all (fun c -> Graphlib.Cycle.is_hamiltonian (Debruijn.Graph.b p) c) cycles
            && Graphlib.Cycle.pairwise_edge_disjoint cycles
          in
          Printf.sprintf "%d %s" (List.length hcs) (if ok then "(verified)" else "(INVALID)")
        end
        else "-"
      in
      Printf.printf "%4d %8d %8d %6s %14s\n" d psi paper
        (if psi = paper then "yes" else "NO")
        constructed)
    paper_psi

let table_3_2 () =
  print_endline hr;
  print_endline "TABLE 3.2 - MAX(psi(d)-1, phi(d)), the edge-fault tolerance, 2 <= d <= 35";
  print_endline hr;
  Printf.printf "%4s %8s %8s %10s %10s\n" "d" "psi-1" "phi(d)" "MAX" "winner";
  for d = 2 to 35 do
    let a = Dhc.Psi.psi d - 1 and b = Dhc.Psi.phi_bound d in
    Printf.printf "%4d %8d %8d %10d %10s\n" d a b (max a b)
      (if a > b then "psi (!)" else if b > a then "phi" else "tie")
  done;
  print_endline
    "(the thesis notes d = 28 as the sole psi-dominated value in this range)"

let run () =
  table_2_1 ();
  print_newline ();
  table_2_2 ();
  print_newline ();
  table_3_1 ();
  print_newline ();
  table_3_2 ();
  print_newline ()
