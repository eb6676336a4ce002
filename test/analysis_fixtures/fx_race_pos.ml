(* Seeded positives for cross-domain-capture: every binding here must
   fire exactly once.  Line numbers are pinned by the golden output in
   test/analyze_fixtures.expected — append, don't reorder. *)

let counter_bump xs =
  let hits = ref 0 in
  Parallel.Default.map (fun x -> incr hits; x + 1) xs

let fixed_slot xs =
  let out = Array.make 4 0 in
  Parallel.Default.map (fun x -> out.(0) <- x; x) xs

let shared_tbl xs =
  let tbl = Hashtbl.create 8 in
  Parallel.Default.map (fun x -> Hashtbl.replace tbl x x; x) xs

type acc = { mutable total : int }

let record_write xs =
  let a = { total = 0 } in
  Parallel.Default.map (fun x -> a.total <- a.total + x; x) xs

(* The closure is a named local function: the analyzer expands it and the
   finding carries the via-chain. *)
let via_local xs =
  let hits = ref 0 in
  let bump x = incr hits; x in
  Parallel.Default.map (fun x -> bump x) xs
