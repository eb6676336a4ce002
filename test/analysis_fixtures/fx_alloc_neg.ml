(* Zero-alloc-clean hot paths: nothing here may fire.  Each binding uses
   an allowance the rule grants structurally (no [@lint.allow]). *)

let clamp (lo : int) hi x = if x < lo then lo else if x > hi then hi else x
  [@@zero_alloc_check]

(* Local int ref used only via ! / := — stays in a register. *)
let sum arr =
  let acc = ref 0 in
  for i = 0 to Array.length arr - 1 do
    acc := !acc + Array.unsafe_get arr i
  done;
  !acc
  [@@zero_alloc_check]

(* Some with an immediate payload is exempt (the Serve.Cache contract). *)
let find_pos (x : int) = if x > 0 then Some x else None [@@zero_alloc_check]

(* [||] is a static constant. *)
let empty () : int array = [||] [@@zero_alloc_check]

(* raise / invalid_arg argument subtrees are cold error paths. *)
let checked (x : int) =
  if x < 0 then invalid_arg (string_of_int x) else x
  [@@zero_alloc_check]
