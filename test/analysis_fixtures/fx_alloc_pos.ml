(* Seeded positives for zero-alloc: every binding here must fire.  Line
   numbers are pinned by test/analyze_fixtures.expected — append, don't
   reorder. *)

let pair a b = (a + 1, b) [@@zero_alloc_check]

let scratch n = Array.make n 0. [@@zero_alloc_check]

let concat s t = s ^ t [@@zero_alloc_check]

let box x = Some (x +. 1.) [@@zero_alloc_check]

let escaping_closure n =
  let f = fun x -> x + n in
  f
  [@@zero_alloc_check]

let partial = ( + ) 3 [@@zero_alloc_check]

(* The allocation sits in a same-file callee: the finding carries the
   via-chain. *)
let helper n = Array.make n 0

let via_helper n = helper (n + 1) [@@zero_alloc_check]

(* A Batch-style panel row that allocates its accumulator per call
   instead of reusing a preallocated scratch row — the shape the
   [E2e.Batch.delay] gate exists to forbid.  Must fire. *)
let panel_row cand n =
  let acc = Array.make n 0. in
  for j = 0 to n - 1 do
    acc.(j) <- acc.(j) +. Array.unsafe_get cand j
  done;
  acc
  [@@zero_alloc_check]

(* A let-bound closure applied only in head position is still built on
   every call by a compiler without flambda (4 minor words per call). *)
let bump_both a =
  let bump = fun i -> Array.unsafe_set a i (Array.unsafe_get a i + 1) in
  bump 0;
  bump 1
  [@@zero_alloc_check]
