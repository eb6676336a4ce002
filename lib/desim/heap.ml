(* Array-backed binary min-heap, stable for equal keys.

   Stability: every pushed element carries a monotone sequence number used
   as the final tie-break, so elements that compare equal under [cmp] pop
   in insertion (FIFO) order.  The event engine relies on this for
   deterministic processing of same-timestamp events. *)

type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable data : 'a array;
  mutable seqs : int array;
  mutable size : int;
  mutable next_seq : int;
}

let create ~cmp = { cmp; data = [||]; seqs = [||]; size = 0; next_seq = 0 }
let length h = h.size

(* cmp, then insertion order. *)
let less h i j =
  let c = h.cmp h.data.(i) h.data.(j) in
  if c <> 0 then c < 0 else h.seqs.(i) < h.seqs.(j)

let swap h i j =
  let tmp = h.data.(i) in
  h.data.(i) <- h.data.(j);
  h.data.(j) <- tmp;
  let tmp = h.seqs.(i) in
  h.seqs.(i) <- h.seqs.(j);
  h.seqs.(j) <- tmp

let grow h x =
  if h.size = Array.length h.data then begin
    let cap = Stdlib.max 8 (2 * Array.length h.data) in
    let data = Array.make cap x in
    Array.blit h.data 0 data 0 h.size;
    h.data <- data;
    let seqs = Array.make cap 0 in
    Array.blit h.seqs 0 seqs 0 h.size;
    h.seqs <- seqs
  end

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less h i parent then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.size && less h l !smallest then smallest := l;
  if r < h.size && less h r !smallest then smallest := r;
  if !smallest <> i then begin
    swap h i !smallest;
    sift_down h !smallest
  end

let push h x =
  grow h x;
  h.data.(h.size) <- x;
  h.seqs.(h.size) <- h.next_seq;
  h.next_seq <- h.next_seq + 1;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let peek h = if h.size = 0 then None else Some h.data.(0)

let pop h =
  if h.size = 0 then None
  else begin
    let top = h.data.(0) in
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.data.(0) <- h.data.(h.size);
      h.seqs.(0) <- h.seqs.(h.size);
      sift_down h 0
    end;
    Some top
  end
