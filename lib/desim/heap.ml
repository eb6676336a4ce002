(* Array-backed binary min-heap over (key, rank) pairs, stable for
   equal pairs.

   Stability: every pushed element carries a monotone sequence number
   as the final tie-break, so elements with equal (key, rank) pop in
   insertion (FIFO) order.  The event engine relies on this for
   deterministic processing of same-timestamp events.  The order lives
   in unboxed columns — the keys, and rank and sequence number packed
   into one int — so a comparison is two inline compares, and both
   sifts move a hole instead of swapping. *)

type 'a t = {
  mutable keys : float array;
  mutable ords : int array;  (* rank lsl seq_bits + sequence number *)
  mutable data : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

(* 2^48 pushes per heap before a sequence number would reach the rank
   bits: a month of pushes at 10^8 a second. *)
let seq_bits = 48

let create () = { keys = [||]; ords = [||]; data = [||]; size = 0; next_seq = 0 }
let length h = h.size

let grow h x =
  if h.size = Array.length h.data then begin
    let cap = Stdlib.max 8 (2 * Array.length h.data) in
    let extend a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 h.size;
      b
    in
    h.keys <- extend h.keys 0.;
    h.ords <- extend h.ords 0;
    h.data <- extend h.data x
  end

let push h ~key ~rank x =
  if rank < 0 || rank >= 1 lsl (62 - seq_bits) then invalid_arg "Heap.push: rank out of range";
  grow h x;
  let ord = (rank lsl seq_bits) lor h.next_seq in
  h.next_seq <- h.next_seq + 1;
  let i = ref h.size and go = ref true in
  h.size <- h.size + 1;
  while !go && !i > 0 do
    let parent = (!i - 1) / 2 in
    let k = h.keys.(parent) in
    if key < k || (key = k && ord < h.ords.(parent)) then begin
      h.keys.(!i) <- k;
      h.ords.(!i) <- h.ords.(parent);
      h.data.(!i) <- h.data.(parent);
      i := parent
    end
    else go := false
  done;
  h.keys.(!i) <- key;
  h.ords.(!i) <- ord;
  h.data.(!i) <- x

let peek h = if h.size = 0 then None else Some h.data.(0)

let pop h =
  if h.size = 0 then None
  else begin
    let top = h.data.(0) and n = h.size - 1 in
    h.size <- n;
    if n > 0 then begin
      let key = h.keys.(n) and ord = h.ords.(n) and x = h.data.(n) in
      let i = ref 0 and go = ref true in
      while !go do
        let l = (2 * !i) + 1 in
        (* c: the child that pops first *)
        let c =
          if l + 1 < n
             && (h.keys.(l + 1) < h.keys.(l)
                || (h.keys.(l + 1) = h.keys.(l) && h.ords.(l + 1) < h.ords.(l)))
          then l + 1
          else l
        in
        if c < n && (h.keys.(c) < key || (h.keys.(c) = key && h.ords.(c) < ord)) then begin
          h.keys.(!i) <- h.keys.(c);
          h.ords.(!i) <- h.ords.(c);
          h.data.(!i) <- h.data.(c);
          i := c
        end
        else go := false
      done;
      h.keys.(!i) <- key;
      h.ords.(!i) <- ord;
      h.data.(!i) <- x
    end;
    Some top
  end
