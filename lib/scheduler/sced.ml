(* SCED with rate-latency targets via per-class virtual-finish clocks. *)

(* paper content; ROADMAP item 5 gives it a user *)
[@@@lint.allow "unreachable-module"]

type target = { rate : float; latency : float }

let policy ~targets () =
  Array.iter
    (fun t ->
      if t.rate <= 0. then invalid_arg "Sced.policy: non-positive rate";
      if t.latency < 0. then invalid_arg "Sced.policy: negative latency")
    targets;
  let vfinish = Array.make (Array.length targets) Float.neg_infinity in
  let key ~arrival ~cls ~size =
    if cls < 0 || cls >= Array.length targets then
      invalid_arg "Sced.policy: class out of range";
    let tg = targets.(cls) in
    let start = Float.max (arrival +. tg.latency) vfinish.(cls) in
    let deadline = start +. (size /. tg.rate) in
    vfinish.(cls) <- deadline;
    { Policy.major = deadline; minor = arrival; tie = cls }
  in
  Policy.make ~name:"SCED" ~key ()
