(* Clocks, the host-speed reference, and the result line.

   Every time the benchmark reports comes from the monotonic clock
   (bechamel's [clock_gettime(CLOCK_MONOTONIC)] stub); the program's own
   telemetry spans keep their wall-clock stamps and are read as they are.

   Host-speed normalization.  On the shared 2-vCPU reference host the same
   fixed work runs up to ~60% slower for stretches of a fraction of a
   second to tens of seconds (CPU time tracks wall time, so this is the
   host's speed, not steal).  A timed phase is therefore cut into blocks,
   and between blocks the benchmark runs one slice of a frozen reference
   kernel ([Hostref]) that never calls the program.  Each block's times
   are scaled by [nominal_ms /. local reference], the reference slices
   around it, so a reported time reads as "on a host where one reference
   slice takes [nominal_ms]".  The program's own changes cannot move the
   reference; the host's speed moves both and cancels.  Raw times are
   printed beside the normalized ones on stderr. *)

let now () = Monotonic_clock.now ()
let ns_between t0 t1 = Int64.to_float (Int64.sub t1 t0)
let ms_since t0 = ns_between t0 (now ()) /. 1e6
let s_since t0 = ns_between t0 (now ()) /. 1e9

(* ---------------- the reference kernel ---------------- *)

module Hostref = struct
  (* Frozen: changing this kernel or [nominal_ms] changes every reported
     time.  It allocates nothing after initialization (so it does no GC
     work on the program's heap) and keeps a small working set (~64 KiB),
     mixing transcendental float math, an in-place integer Shell sort and
     data-dependent table updates.  (Stdlib's Array.sort allocates: its
     heap sort raises an exception carrying an int per sift.) *)
  let sort_n = 2048
  let table_n = 4096
  let source = Array.init sort_n (fun i -> (i * 7919) mod 10007)
  let scratch = Array.make sort_n 0
  let table = Array.make table_n 0
  let sink = [| 0. |]

  let shell_sort (a : int array) =
    let gap = ref (Array.length a / 2) in
    while !gap > 0 do
      let g = !gap in
      for i = g to Array.length a - 1 do
        let v = a.(i) in
        let j = ref i in
        while !j >= g && a.(!j - g) > v do
          a.(!j) <- a.(!j - g);
          j := !j - g
        done;
        a.(!j) <- v
      done;
      gap := g / 2
    done

  let kernel () =
    let acc = ref 0. and x = ref 1. in
    for i = 1 to 40_000 do
      x := (!x *. 1.0000001) +. 1e-9;
      acc := !acc +. exp (-.float_of_int (i land 1023) *. 1e-3) +. log (!x +. float_of_int (i land 255))
    done;
    Array.blit source 0 scratch 0 sort_n;
    shell_sort scratch;
    let h = ref 12345 in
    for _ = 1 to 80_000 do
      h := ((!h * 1103515245) + 12345) land (table_n - 1);
      table.(!h) <- table.(!h) + scratch.(!h land (sort_n - 1))
    done;
    sink.(0) <- !acc +. float_of_int (table.(0) + scratch.(sort_n - 1))

  (* One slice on the reference host takes about this long. *)
  let nominal_ms = 1.25

  let slice () =
    let t0 = now () in
    kernel ();
    ms_since t0
end

(* ---------------- timelines ---------------- *)

(* A timed phase cut into [blocks] blocks with a reference slice before
   the first block, between blocks and after the last.  A block's elapsed
   time runs from the end of the slice before it to the start of the
   slice after it. *)
type timeline = {
  refs : float array;  (** slice times, [blocks + 1] *)
  elapsed : float array;  (** block times, raw ms *)
  mutable next : int;  (** slices taken so far *)
  mutable opened : int64;
}

let timeline ~blocks =
  { refs = Array.make (blocks + 1) Float.nan; elapsed = Array.make blocks 0.; next = 0; opened = 0L }

(* Close the current block (if any) and take the next reference slice,
   which opens block [next - 1]. *)
let cut tl =
  let t = now () in
  if tl.next >= Array.length tl.refs then invalid_arg "Ledger.cut: more blocks than planned";
  if tl.next > 0 then tl.elapsed.(tl.next - 1) <- ns_between tl.opened t /. 1e6;
  tl.refs.(tl.next) <- Hostref.slice ();
  tl.next <- tl.next + 1;
  tl.opened <- now ()

let block tl = tl.next - 1

let median_of w =
  let w = Array.copy w in
  Array.sort Float.compare w;
  let n = Array.length w in
  if n land 1 = 1 then w.(n / 2) else (w.((n / 2) - 1) +. w.(n / 2)) /. 2.

(* Scale factor for block [b]: nominal over the median of the (up to)
   four slices around it — two before, two after — so one disturbed
   slice cannot skew a block. *)
let scale tl b =
  let lo = Stdlib.max 0 (b - 1) and hi = Stdlib.min (tl.next - 1) (b + 2) in
  Hostref.nominal_ms /. median_of (Array.sub tl.refs lo (hi - lo + 1))

(* Per-item times (ms) scaled by their blocks' factors. *)
let normalize tl ms blocks = Array.mapi (fun i x -> x *. scale tl blocks.(i)) ms

(* The phase's time without the slices: raw and normalized, seconds. *)
let wall_raw tl = Array.fold_left ( +. ) 0. tl.elapsed /. 1e3

let wall tl =
  let s = ref 0. in
  Array.iteri (fun b e -> s := !s +. (e *. scale tl b)) tl.elapsed;
  !s /. 1e3

(* [f]'s time as one block between two reference slices: normalized ms. *)
let probe f =
  let tl = timeline ~blocks:1 in
  cut tl;
  let r = f () in
  cut tl;
  (r, wall tl *. 1e3)

(* The run's host-speed index: nominal over the median slice. *)
let host_index tl = Hostref.nominal_ms /. median_of (Array.sub tl.refs 0 tl.next)

(* ---------------- process facts ---------------- *)

(* Peak resident set size from the kernel's high-water mark for this
   process; falls back to the OCaml major heap peak where /proc is
   missing. *)
let peak_rss_mb () =
  let from_proc () =
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find_map (fun l ->
           match String.split_on_char ':' l with
           | [ "VmHWM"; v ] ->
             Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb -> float_of_int kb /. 1024.)
           | _ -> None)
  in
  match from_proc () with
  | Some mb -> mb
  | None | (exception Sys_error _) ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. (1024. *. 1024.)

(* ---------------- result ---------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  problems : string list;  (** why [correct] is false, for stderr *)
}

let to_json r =
  let module J = Telemetry.Json in
  J.obj
    [
      ("correct", if r.correct then "true" else "false");
      ("attempted", string_of_int r.attempted);
      ("failed", string_of_int r.failed);
      ( "metrics",
        J.obj
          (List.map
             (fun x ->
               (x.name, J.obj [ ("value", J.number x.value); ("unit", "\"" ^ J.escape x.unit_ ^ "\"") ]))
             r.metrics) );
    ]
