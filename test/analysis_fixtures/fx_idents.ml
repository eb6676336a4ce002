(* Seeded positives for the per-identifier rules, read back from the cmt:
   the typed tree resolves the module alias and the float abbreviation
   that a syntactic check cannot see through.  Line numbers are pinned by
   test/analyze_fixtures.expected — append, don't reorder. *)

module R = Random

type ms = float

let roll () = R.int 6
let same (a : ms) b = a = b
let order (a : float) b = compare a b
let sentinel = nan
let quit () = exit 3
let fan () = Domain.spawn (fun () -> 1)
let cast x = Obj.magic x

(* Silent: physical equality, compare at int, a qualified sentinel. *)
let alias (r : int ref) r' = r == r'
let cmp (a : int) b = compare a b
let inf = Float.infinity
