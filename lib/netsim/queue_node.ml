(* Capacity-C node with pluggable scheduling, served one slot at a
   time by every simulator.

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
  (* Packetized: the class whose head packet is on the wire, or -1. *)
  mutable wire : int;
  mutable next_seq : int;
  mutable queued : int;  (* batches in the rings, all classes *)
  (* Queue-depth high-water mark (kb, all classes); always maintained — a
     float compare per offer — so telemetry can read it after the run. *)
  mutable high_water : float;
  departed : float array;  (* per class, this slot; returned by [serve_slot] *)
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
    wire = -1;
    next_seq = 0;
    queued = 0;
    high_water = 0.;
    departed = Array.make classes 0.;
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

(* Below this a budget or a batch remainder counts as spent. *)
let dust = 1e-12

(* Serve [amount] (at most its remaining work [left]) from the head batch
   of class [c], whose ring is [r]; drop the batch once its remainder is
   dust.  [true] iff it completed. *)
let[@inline] take t c r ~left amount =
  let i = r.head in
  t.departed.(c) <- t.departed.(c) +. amount;
  t.backlog.(c) <- t.backlog.(c) -. amount;
  if left -. amount > dust then begin
    r.left.(i) <- left -. amount;
    false
  end
  else begin
    drop r;
    t.queued <- t.queued - 1;
    true
  end

(* Preemptive service: always the most urgent head, split at the
   budget. *)
let[@inline] serve_fluid t budget =
  let budget = ref budget in
  while t.queued > 0 && !budget > dust do
    let c = most_urgent t in
    let r = t.rings.(c) in
    let left = r.left.(r.head) in
    let served = fmin left !budget in
    budget := !budget -. served;
    ignore (take t c r ~left served : bool)
  done
[@@zero_alloc_check]

(* Non-preemptive service: finish the packet on the wire before the next
   precedence decision. *)
let[@inline] serve_packet t budget =
  let budget = ref budget in
  while t.queued > 0 && !budget > dust do
    if t.wire < 0 then t.wire <- most_urgent t
    else begin
      let c = t.wire in
      let r = t.rings.(c) in
      let left = r.left.(r.head) in
      let served = fmin left !budget in
      budget := !budget -. served;
      if take t c r ~left served then t.wire <- -1
    end
  done
[@@zero_alloc_check]

(* Weighted fair shares of the budget over the backlogged classes.  A
   class is backlogged iff its ring is non-empty, so dust left in the
   backlog of an emptied class never draws a share. *)
let serve_fair t g budget =
  let backlogs =
    Array.mapi (fun c b -> if t.rings.(c).len > 0 then b else 0.) t.backlog
  in
  let grants = Scheduler.Gps.allocate g ~capacity:budget ~backlogs in
  Array.iteri
    (fun c grant ->
      let r = t.rings.(c) in
      let remaining = ref grant in
      while !remaining > dust && r.len > 0 do
        let left = r.left.(r.head) in
        let served = fmin left !remaining in
        remaining := !remaining -. served;
        ignore (take t c r ~left served : bool)
      done)
    grants

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
  (* inlined with the ∆-policy loops, so the computed [budget] is never
     boxed; each class's service is added to [departed] *)
  (match t.shape with
  | Fluid _ -> serve_fluid t budget
  | Packet _ -> serve_packet t budget
  | Fair g -> serve_fair t g budget);
  departed

let occupied t = t.queued > 0

let backlog_of t ~cls =
  check_class t "backlog_of" cls;
  t.backlog.(cls)

let high_water t = t.high_water
