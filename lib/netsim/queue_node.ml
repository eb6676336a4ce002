(* Capacity-C node with pluggable scheduling, shared by the slotted and
   the continuous clock.

   Every discipline is locally FIFO: within a class, precedence keys never
   decrease in arrival order (checked on offer).  So the node keeps one
   FIFO ring per class, and the globally most urgent batch is always one
   of the <= K class heads: a ∆-policy serves the argmin over the heads
   (key, then node-wide insertion order), GPS water-fills over the same
   rings.  The rings are parallel unboxed columns, so a queued batch is
   no heap-allocated record. *)

(* One class's FIFO as parallel columns in a power-of-two ring. *)
type ring = {
  mutable major : float array;
  mutable minor : float array;
  mutable tie : int array;
  mutable seq : int array;  (* node-wide insertion order *)
  mutable left : float array;  (* remaining work *)
  mutable total : float array;  (* size as offered; reported on completion *)
  mutable head : int;  (* physical index of the oldest batch *)
  mutable len : int;
}

let ring_create () =
  let n = 16 in
  {
    major = Array.make n 0.;
    minor = Array.make n 0.;
    tie = Array.make n 0;
    seq = Array.make n 0;
    left = Array.make n 0.;
    total = Array.make n 0.;
    head = 0;
    len = 0;
  }

(* Double a full ring, unrolling it so the oldest batch lands at index 0. *)
let grow r =
  let n = Array.length r.left in
  let unroll a z =
    let b = Array.make (2 * n) z in
    Array.blit a r.head b 0 (n - r.head);
    Array.blit a 0 b (n - r.head) r.head;
    b
  in
  r.major <- unroll r.major 0.;
  r.minor <- unroll r.minor 0.;
  r.tie <- unroll r.tie 0;
  r.seq <- unroll r.seq 0;
  r.left <- unroll r.left 0.;
  r.total <- unroll r.total 0.;
  r.head <- 0

(* Room for one more batch; [push] assumes it. *)
let[@inline] reserve r = if r.len = Array.length r.left then grow r

let[@inline] push r ~major ~minor ~tie ~seq size =
  let i = (r.head + r.len) land (Array.length r.left - 1) in
  r.major.(i) <- major;
  r.minor.(i) <- minor;
  r.tie.(i) <- tie;
  r.seq.(i) <- seq;
  r.left.(i) <- size;
  r.total.(i) <- size;
  r.len <- r.len + 1

let[@inline] drop r =
  r.head <- (r.head + 1) land (Array.length r.left - 1);
  r.len <- r.len - 1

(* [Scheduler.Policy.compare_key] of the key (major, minor, tie) against
   the key of batch [j] of ring [r]. *)
let[@inline] compare_to (major : float) (minor : float) tie r j =
  let c = Float.compare major r.major.(j) in
  if c <> 0 then c
  else
    let c = Float.compare minor r.minor.(j) in
    if c <> 0 then c else Int.compare tie r.tie.(j)

(* Batch [i] of [ra] is served before batch [j] of [rb]: lower key, then
   earlier insertion. *)
let[@inline] precedes ra i rb j =
  let c = compare_to ra.major.(i) ra.minor.(i) ra.tie.(i) rb j in
  if c <> 0 then c < 0 else ra.seq.(i) < rb.seq.(j)

type discipline =
  | Delta_policy of Scheduler.Policy.t
  | Gps of Scheduler.Gps.t

(* A ∆-policy's key rule is resolved once, at [create]. *)
type shape =
  | Fluid of Scheduler.Policy.rule
  | Packet of Scheduler.Policy.rule * float
  | Fair of Scheduler.Gps.t

type t = {
  capacity : float;
  shape : shape;
  rings : ring array;
  backlog : float array;  (* per class, including the part in service *)
  served : float array;  (* per class, cumulative *)
  (* Packetized: the class whose head packet is on the wire, or -1. *)
  mutable wire : int;
  mutable next_seq : int;
  mutable queued : int;  (* batches in the rings, all classes *)
  (* Queue-depth high-water mark (kb, all classes); always maintained — a
     float compare per offer — so telemetry can read it after the run. *)
  mutable high_water : float;
  departed : float array;  (* per class, this slot; returned by [serve_slot] *)
  (* Continuous clock. *)
  mutable factor : float;
  mutable last : float;
  (* Batches completed since the last [take_completions], in order:
     class and size as offered. *)
  mutable done_cls : int array;
  mutable done_total : float array;
  mutable done_len : int;
  mutable gen : int;
}

let c_offers = Telemetry.Counter.make "netsim.node.offers"
let c_packets = Telemetry.Counter.make "netsim.node.packets"
let c_slots = Telemetry.Counter.make "netsim.node.slots"
let c_degraded_slots = Telemetry.Counter.make "netsim.node.degraded_slots"

let create ?packet_size ~capacity ~classes discipline =
  if capacity <= 0. then invalid_arg "Queue_node.create: non-positive capacity";
  if classes <= 0 then invalid_arg "Queue_node.create: non-positive class count";
  let shape =
    match (discipline, packet_size) with
    | (_, Some l) when not (l > 0.) -> invalid_arg "Queue_node.create: non-positive packet size"
    | (Delta_policy p, None) -> Fluid (Scheduler.Policy.rule p)
    | (Delta_policy p, Some l) -> Packet (Scheduler.Policy.rule p, l)
    | (Gps g, None) -> Fair g
    | (Gps _, Some _) -> invalid_arg "Queue_node.create: GPS is fluid (no packet size)"
  in
  {
    capacity;
    shape;
    rings = Array.init classes (fun _ -> ring_create ());
    backlog = Array.make classes 0.;
    served = Array.make classes 0.;
    wire = -1;
    next_seq = 0;
    queued = 0;
    high_water = 0.;
    departed = Array.make classes 0.;
    factor = 1.;
    last = 0.;
    done_cls = Array.make 16 0;
    done_total = Array.make 16 0.;
    done_len = 0;
    gen = 0;
  }

let[@inline] check_class t fn cls =
  if cls < 0 || cls >= Array.length t.rings then
    invalid_arg (Printf.sprintf "Queue_node.%s: class out of range" fn)

(* Queue one batch (or packet) with key (major, minor, tie) into ring
   [r], which has room for it. *)
let[@inline] enqueue_key t r ~major ~minor ~tie size =
  if !Telemetry.on then Telemetry.Counter.incr c_packets;
  let tail = (r.head + r.len - 1) land (Array.length r.left - 1) in
  if r.len > 0 && compare_to major minor tie r tail < 0 then
    invalid_arg "Queue_node.offer: key below the class's tail (policy not locally FIFO)";
  push r ~major ~minor ~tie ~seq:t.next_seq size;
  t.queued <- t.queued + 1;
  t.next_seq <- t.next_seq + 1

(* A built-in policy's key, computed in place by one match (the keys
   {!Scheduler.Policy.key} documents): no key record, no boxed float. *)
let[@inline] enqueue_builtin t (b : Scheduler.Policy.builtin) r ~now ~cls size =
  match b with
  | Fifo -> enqueue_key t r ~major:now ~minor:0. ~tie:cls size
  | Static_priority priorities ->
    enqueue_key t r ~major:(-.float_of_int priorities.(cls)) ~minor:now ~tie:cls size
  | Edf deadlines -> enqueue_key t r ~major:(now +. deadlines.(cls)) ~minor:now ~tie:cls size
  | Bmux tagged ->
    enqueue_key t r ~major:(if cls = tagged then 1. else 0.) ~minor:now ~tie:cls size
[@@zero_alloc_check]

(* Queue one batch (or packet) under a ∆-policy's key rule. *)
let[@inline] enqueue t (rule : Scheduler.Policy.rule) r ~now ~cls size =
  reserve r;
  match rule with
  | Builtin b -> enqueue_builtin t b r ~now ~cls size
  | Custom key ->
    let { Scheduler.Policy.major; minor; tie } = key ~arrival:now ~cls ~size in
    enqueue_key t r ~major ~minor ~tie size

let[@inline] fmin (a : float) b = if b > a then a else b

let offer t ~now ~cls size =
  check_class t "offer" cls;
  if size < 0. then invalid_arg "Queue_node.offer: negative size";
  if not (size < Float.infinity) then invalid_arg "Queue_node.offer: NaN or infinite size";
  if size > 0. then begin
    t.backlog.(cls) <- t.backlog.(cls) +. size;
    let depth = ref 0. in
    for c = 0 to Array.length t.backlog - 1 do
      depth := !depth +. t.backlog.(c)
    done;
    if !depth > t.high_water then t.high_water <- !depth;
    if !Telemetry.on then Telemetry.Counter.incr c_offers;
    let r = t.rings.(cls) in
    match t.shape with
    | Fluid rule -> enqueue t rule r ~now ~cls size
    | Packet (rule, l) ->
      (* segment the batch into packets of at most l kb ([fmin] is
         [Float.min] on these positive sizes); [l +. 0.] is l (l > 0) as
         an unboxed float, so no packet size is boxed *)
      let l = l +. 0. and remaining = ref size in
      while !remaining > 1e-12 do
        enqueue t rule r ~now ~cls (fmin l !remaining);
        remaining := !remaining -. l
      done
    | Fair _ ->
      reserve r;
      push r ~major:0. ~minor:0. ~tie:0 ~seq:0 size;
      t.queued <- t.queued + 1
  end

(* Class whose head batch is most urgent; -1 when every ring is empty. *)
let[@inline] most_urgent t =
  let best = ref (-1) and b = ref t.rings.(0) in
  for c = 0 to Array.length t.rings - 1 do
    let r = t.rings.(c) in
    if r.len > 0 then
      if !best < 0 || precedes r r.head !b !b.head then begin best := c; b := r end
  done;
  !best

(* Serve [amount] (at most its remaining work [left]) from the head batch
   of class [c], whose ring is [r]; drop the batch once its remainder is
   dust, logging it when [record] (the log has room: see [serve]).
   [true] iff it completed. *)
let[@inline] take t ~eps ~record ~departed c r ~left amount =
  let i = r.head in
  departed.(c) <- departed.(c) +. amount;
  t.backlog.(c) <- t.backlog.(c) -. amount;
  if left -. amount > eps then begin
    r.left.(i) <- left -. amount;
    false
  end
  else begin
    if record then begin
      t.done_cls.(t.done_len) <- c;
      t.done_total.(t.done_len) <- r.total.(i);
      t.done_len <- t.done_len + 1
    end;
    drop r;
    t.queued <- t.queued - 1;
    true
  end

(* Preemptive service: always the most urgent head, split at the
   budget. *)
let[@inline] serve_fluid t ~eps ~record ~departed budget =
  let budget = ref budget in
  while t.queued > 0 && !budget > eps do
    let c = most_urgent t in
    let r = t.rings.(c) in
    let left = r.left.(r.head) in
    let served = fmin left !budget in
    budget := !budget -. served;
    ignore (take t ~eps ~record ~departed c r ~left served : bool)
  done
[@@zero_alloc_check]

(* Non-preemptive service: finish the packet on the wire before the next
   precedence decision. *)
let[@inline] serve_packet t ~eps ~record ~departed budget =
  let budget = ref budget in
  while t.queued > 0 && !budget > eps do
    if t.wire < 0 then t.wire <- most_urgent t
    else begin
      let c = t.wire in
      let r = t.rings.(c) in
      let left = r.left.(r.head) in
      let served = fmin left !budget in
      budget := !budget -. served;
      if take t ~eps ~record ~departed c r ~left served then t.wire <- -1
    end
  done
[@@zero_alloc_check]

(* Room in the completion log for every queued batch, the most one
   service call can complete. *)
let reserve_log t =
  let need = t.done_len + t.queued in
  let cap = Array.length t.done_cls in
  if need > cap then begin
    let cap = Stdlib.max need (2 * cap) in
    let cls = Array.make cap 0 and total = Array.make cap 0. in
    Array.blit t.done_cls 0 cls 0 t.done_len;
    Array.blit t.done_total 0 total 0 t.done_len;
    t.done_cls <- cls;
    t.done_total <- total
  end

(* Weighted fair shares of the budget over the backlogged classes.  A
   class is backlogged iff its ring is non-empty — the same test
   [next_completion] uses, so dust left in the backlog of an emptied class
   never draws a share. *)
let serve_fair t g ~eps ~record ~departed budget =
  let backlogs =
    Array.mapi (fun c b -> if t.rings.(c).len > 0 then b else 0.) t.backlog
  in
  let grants = Scheduler.Gps.allocate g ~capacity:budget ~backlogs in
  Array.iteri
    (fun c grant ->
      let r = t.rings.(c) in
      let remaining = ref grant in
      while !remaining > eps && r.len > 0 do
        let left = r.left.(r.head) in
        let served = fmin left !remaining in
        remaining := !remaining -. served;
        ignore (take t ~eps ~record ~departed c r ~left served : bool)
      done)
    grants

(* The one service loop: spend [budget] kb in service order.  [eps] is the
   dust threshold below which a budget or a batch remainder counts as
   spent.  Each class's service is added to [departed]; completed batches
   are logged when [record].  Inlined, with the ∆-policy loops, so a
   computed [budget] is never boxed. *)
let[@inline] serve t ~eps ~record ~departed budget =
  if record then reserve_log t;
  match t.shape with
  | Fluid _ -> serve_fluid t ~eps ~record ~departed budget
  | Packet _ -> serve_packet t ~eps ~record ~departed budget
  | Fair g -> serve_fair t g ~eps ~record ~departed budget

let serve_slot ?factor t =
  (* A degraded slot serves at a scaled-down capacity. *)
  let budget =
    match factor with
    | None -> t.capacity
    | Some f ->
      if f < 1. && !Telemetry.on then Telemetry.Counter.incr c_degraded_slots;
      t.capacity *. f
  in
  if !Telemetry.on then Telemetry.Counter.incr c_slots;
  let departed = t.departed in
  for c = 0 to Array.length departed - 1 do
    departed.(c) <- 0.
  done;
  serve t ~eps:1e-12 ~record:false ~departed budget;
  for c = 0 to Array.length departed - 1 do
    t.served.(c) <- t.served.(c) +. departed.(c)
  done;
  departed

let occupied t = t.queued > 0

let backlog t = Array.fold_left ( +. ) 0. t.backlog

let backlog_of t ~cls =
  check_class t "backlog_of" cls;
  t.backlog.(cls)

let high_water t = t.high_water

let served_of t ~cls =
  check_class t "served_of" cls;
  t.served.(cls)

(* ------------------------- continuous clock ------------------------- *)

let eps = 1e-9

(* The engine fires an event at every predicted completion, so at most
   one batch (per class, for GPS) drains per interval; the loop's dust
   threshold only mops up float residue. *)
(* A free packetized link starts its next packet at once. *)
let start_wire t =
  match t.shape with Packet _ when t.wire < 0 -> t.wire <- most_urgent t | _ -> ()

let sync t ~now =
  let dt = now -. t.last in
  if dt < -.eps then invalid_arg "Queue_node.sync: time moved backwards";
  t.last <- now;
  (* the packet that went on the free link with the last offer: every
     mutation follows a sync, so the queue is as that offer left it *)
  start_wire t;
  let budget = Float.max 0. dt *. t.capacity *. t.factor in
  if budget > 0. then begin
    serve t ~eps ~record:true ~departed:t.served budget;
    start_wire t
  end

let set_factor t ~now factor =
  if Float.is_nan factor || factor < 0. || factor > 1. then
    invalid_arg "Queue_node.set_factor: factor outside [0, 1]";
  sync t ~now;
  t.factor <- factor

let factor t = t.factor

let next_completion t =
  let rate = t.capacity *. t.factor in
  if rate <= eps then Float.infinity
  else
    match t.shape with
    | Fluid _ | Packet _ ->
      let c = if t.wire >= 0 then t.wire else most_urgent t in
      if c < 0 then Float.infinity
      else
        let r = t.rings.(c) in
        t.last +. (r.left.(r.head) /. rate)
    | Fair g ->
      let weights = Scheduler.Gps.weights g in
      let active = ref 0. in
      Array.iteri (fun c r -> if r.len > 0 then active := !active +. weights.(c)) t.rings;
      let best = ref Float.infinity in
      Array.iteri
        (fun c r ->
          if r.len > 0 then begin
            let share = rate *. weights.(c) /. !active in
            if share > eps then begin
              let dt = r.left.(r.head) /. share in
              if dt < !best then best := dt
            end
          end)
        t.rings;
      t.last +. !best

let take_completions t =
  let out = List.init t.done_len (fun i -> (t.done_cls.(i), t.done_total.(i))) in
  t.done_len <- 0;
  out

let gen t = t.gen

let bump t =
  t.gen <- t.gen + 1;
  t.gen
