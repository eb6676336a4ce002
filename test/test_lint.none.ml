(* The per-identifier rule cases need the analysis library, which is
   built only where compiler-libs matches it (lib/analysis/dune). *)
let suite : unit Alcotest.test_case list = []
