type mapping = Uncached | Cached

type t = {
  width : int;
  height : int;
  cache : int array;  (* CPU view *)
  plane : int array;  (* what the display reads *)
  dirty : bool array;  (* per-row dirtiness of the CPU view *)
  mutable mapping : mapping;
  mutable presented : int;
}

let create ~width ~height =
  assert (width > 0 && height > 0);
  {
    width;
    height;
    cache = Array.make (width * height) 0;
    plane = Array.make (width * height) 0;
    dirty = Array.make height false;
    mapping = Cached;
    presented = 0;
  }

let width t = t.width
let height t = t.height
let set_mapping t m = t.mapping <- m
let mapping t = t.mapping

(* Pixel planes are copied with int-typed loops. [Array.blit] runs the
   write barrier once per element whenever the destination sits in the
   major heap, as every long-lived plane does, and [Array.fill] re-reads
   each old element; a loop over [int array] compiles to plain stores.
   The loops are unrolled four ways because OCaml 5 polls at every loop
   back-edge, and one poll per four pixels is measurably faster again
   (EXPERIMENTS.md, "Pixel copies"). *)
let blit (src : int array) src_off (dst : int array) dst_off len =
  if
    len < 0 || src_off < 0
    || src_off > Array.length src - len
    || dst_off < 0
    || dst_off > Array.length dst - len
  then invalid_arg "Framebuffer.blit";
  let i = ref 0 in
  while !i + 4 <= len do
    let s = src_off + !i and d = dst_off + !i in
    Array.unsafe_set dst d (Array.unsafe_get src s);
    Array.unsafe_set dst (d + 1) (Array.unsafe_get src (s + 1));
    Array.unsafe_set dst (d + 2) (Array.unsafe_get src (s + 2));
    Array.unsafe_set dst (d + 3) (Array.unsafe_get src (s + 3));
    i := !i + 4
  done;
  for k = !i to len - 1 do
    Array.unsafe_set dst (dst_off + k) (Array.unsafe_get src (src_off + k))
  done

let fill (a : int array) off len px =
  if len < 0 || off < 0 || off > Array.length a - len then
    invalid_arg "Framebuffer.fill";
  let i = ref off and stop = off + len in
  while !i + 4 <= stop do
    let k = !i in
    Array.unsafe_set a k px;
    Array.unsafe_set a (k + 1) px;
    Array.unsafe_set a (k + 2) px;
    Array.unsafe_set a (k + 3) px;
    i := k + 4
  done;
  for k = !i to stop - 1 do
    Array.unsafe_set a k px
  done

let publish_row t y =
  let off = y * t.width in
  blit t.cache off t.plane off t.width;
  t.dirty.(y) <- false

let write_pixel t ~x ~y px =
  if x >= 0 && x < t.width && y >= 0 && y < t.height then begin
    t.cache.((y * t.width) + x) <- px;
    match t.mapping with
    | Uncached -> publish_row t y
    | Cached -> t.dirty.(y) <- true
  end

let read_pixel t ~x ~y =
  if x >= 0 && x < t.width && y >= 0 && y < t.height then
    t.cache.((y * t.width) + x)
  else 0

let write_row t ~y ~off row =
  if y >= 0 && y < t.height then begin
    let n = min t.width (Array.length row - off) in
    blit row off t.cache (y * t.width) n;
    match t.mapping with
    | Uncached -> publish_row t y
    | Cached -> t.dirty.(y) <- true
  end

let flush t =
  match t.mapping with
  | Uncached -> 0
  | Cached ->
      let rows = ref 0 in
      for y = 0 to t.height - 1 do
        if t.dirty.(y) then begin
          publish_row t y;
          incr rows
        end
      done;
      if !rows > 0 then t.presented <- t.presented + 1;
      !rows

let evict_some t rng ~fraction =
  for y = 0 to t.height - 1 do
    if t.dirty.(y) && Sim.Rng.bool rng fraction then publish_row t y
  done

let display_pixel t ~x ~y =
  if x >= 0 && x < t.width && y >= 0 && y < t.height then
    t.plane.((y * t.width) + x)
  else 0

let stale_rows t =
  let n = ref 0 in
  for y = 0 to t.height - 1 do
    if t.dirty.(y) then incr n
  done;
  !n

let frames_presented t = t.presented

let to_ppm t =
  let buf = Buffer.create ((t.width * t.height * 3) + 32) in
  Buffer.add_string buf (Printf.sprintf "P6\n%d %d\n255\n" t.width t.height);
  for y = 0 to t.height - 1 do
    for x = 0 to t.width - 1 do
      let px = t.plane.((y * t.width) + x) in
      Buffer.add_char buf (Char.chr ((px lsr 16) land 0xff));
      Buffer.add_char buf (Char.chr ((px lsr 8) land 0xff));
      Buffer.add_char buf (Char.chr (px land 0xff))
    done
  done;
  Buffer.contents buf

let luminance px =
  let r = (px lsr 16) land 0xff
  and g = (px lsr 8) land 0xff
  and b = px land 0xff in
  ((299 * r) + (587 * g) + (114 * b)) / 1000

let ascii_ramp = " .:-=+*#%@"

let to_ascii t ~cols ~rows =
  let buf = Buffer.create ((cols + 1) * rows) in
  for ry = 0 to rows - 1 do
    for cx = 0 to cols - 1 do
      let x = cx * t.width / cols and y = ry * t.height / rows in
      let lum = luminance t.plane.((y * t.width) + x) in
      let idx = lum * (String.length ascii_ramp - 1) / 255 in
      Buffer.add_char buf ascii_ramp.[idx]
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf
