(* Path normalization for typedtree analysis.

   Typed paths come in several spellings for the same source-level name:
   wrapped-library mangling ([Parallel__Pool.map]), [Stdlib] prefixes
   ([Stdlib.ref], [Stdlib__Hashtbl.t]) and plain predef names ([array]).
   Everything is flattened to a dotted string with [__] split into [.] and
   leading [Stdlib.] dropped, then matched by whole trailing segments, so
   ["Pool.map"] matches [Parallel__Pool.map] but not [Toolpool.map]. *)

let rec flat = function
  | Path.Pident id -> Ident.name id
  | Path.Pdot (p, s) -> flat p ^ "." ^ s
  | Path.Papply (p, _) -> flat p
  | Path.Pextra_ty (p, _) -> flat p

let split_mangled s =
  (* "Parallel__Pool" -> ["Parallel"; "Pool"]; keeps "__" at word ends. *)
  let n = String.length s in
  let out = ref [] and start = ref 0 and i = ref 0 in
  while !i < n - 1 do
    if
      s.[!i] = '_'
      && s.[!i + 1] = '_'
      && !i > !start
      && !i + 2 < n
      && s.[!i + 2] <> '_'
    then (
      out := String.sub s !start (!i - !start) :: !out;
      start := !i + 2;
      i := !i + 2)
    else incr i
  done;
  out := String.sub s !start (n - !start) :: !out;
  List.rev !out

(* Every segment, [Stdlib] included: ["Stdlib"; "Random"; "int"]. *)
let full p = List.concat_map split_mangled (String.split_on_char '.' (flat p))

let segments p =
  match full p with "Stdlib" :: (_ :: _ as rest) -> rest | segs -> segs

let norm p = String.concat "." (segments p)

(* [matches p "Pool.map"]: do [p]'s trailing segments equal the pattern's? *)
let matches p pat =
  let pat_segs = String.split_on_char '.' pat in
  let segs = segments p in
  let n = List.length segs and k = List.length pat_segs in
  n >= k
  &&
  let rec drop i l = if i = 0 then l else drop (i - 1) (List.tl l) in
  List.equal String.equal (drop (n - k) segs) pat_segs

let matches_any p pats = List.exists (matches p) pats
