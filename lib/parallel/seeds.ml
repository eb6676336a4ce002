let derive ~base_seed n =
  if n < 0 then invalid_arg "Parallel.Seeds.derive: negative count";
  let rng = Desim.Prng.create ~seed:base_seed in
  (* the draw order is 0..n-1: Array.init applies its function in order *)
  Array.init n (fun _ -> Desim.Prng.bits64 rng)
