(* Packet-level scheduling policies realizing ∆-schedulers. *)

type key = { major : float; minor : float; tie : int }

let compare_key a b =
  match Float.compare a.major b.major with
  | 0 -> (
    match Float.compare a.minor b.minor with 0 -> Int.compare a.tie b.tie | c -> c)
  | c -> c

type builtin =
  | Fifo
  | Static_priority of int array
  | Edf of float array
  | Bmux of int

type rule =
  | Builtin of builtin
  | Custom of (arrival:float -> cls:int -> size:float -> key)

type t = {
  name : string;
  rule : rule;
  matrix : n:int -> Classes.matrix option;
}

let name p = p.name
let rule p = p.rule

let key p ~arrival ~cls ~size =
  match p.rule with
  | Builtin b ->
    let major =
      match b with
      | Fifo -> arrival
      | Static_priority priorities -> -.float_of_int priorities.(cls)
      | Edf deadlines -> arrival +. deadlines.(cls)
      | Bmux tagged -> if cls = tagged then 1. else 0.
    in
    let minor = match b with Fifo -> 0. | Static_priority _ | Edf _ | Bmux _ -> arrival in
    { major; minor; tie = cls }
  | Custom f -> f ~arrival ~cls ~size

let make ~name ~key ?(matrix = fun ~n:_ -> None) () = { name; rule = Custom key; matrix }

let fifo = { name = "FIFO"; rule = Builtin Fifo; matrix = (fun ~n -> Some (Classes.fifo ~n)) }

let static_priority ~priorities =
  {
    name = "SP";
    rule = Builtin (Static_priority priorities);
    matrix =
      (fun ~n ->
        if n <> Array.length priorities then None
        else Some (Classes.static_priority ~priorities));
  }

let edf ~deadlines =
  {
    name = "EDF";
    rule = Builtin (Edf deadlines);
    matrix =
      (fun ~n ->
        if n <> Array.length deadlines then None else Some (Classes.edf ~deadlines));
  }

let bmux ~tagged =
  {
    name = "BMUX";
    rule = Builtin (Bmux tagged);
    matrix = (fun ~n -> Some (Classes.bmux ~n ~tagged));
  }

let of_two_class (tc : Classes.two_class) ~through_deadline ~cross_deadline =
  match tc with
  | Classes.Fifo -> fifo
  | Classes.Bmux -> bmux ~tagged:0
  | Classes.Sp_through_high -> static_priority ~priorities:[| 1; 0 |]
  | Classes.Edf_gap _ -> edf ~deadlines:[| through_deadline; cross_deadline |]

let is_delta_realizable p ~n = p.matrix ~n
