(** pixbench — the host cost of copying one 640×480 pixel plane.

    The framebuffer model keeps its CPU view and display plane as
    [int array]s that live in the major heap, and every presented frame
    copies whole planes between them. This times the ways of doing that
    copy, on planes promoted to the major heap first:

    - the stdlib [Array.blit]/[Array.fill], which on a major-heap
      destination do per-element write-barrier work;
    - the old [Gfx.present] path, two [Array.blit]s per row through a
      one-row scratch buffer;
    - a plain [for] loop of [Array.unsafe_set];
    - {!Hw.Framebuffer.blit}/[fill], the unrolled plain-store loops the
      pixel planes use;
    - [Bytes.blit] over a 4-byte-per-pixel plane, as a floor for what a
      byte-packed plane would cost.

    Host time only: nothing here touches virtual time. Each row is the
    median of 9 samples of 50 copies, with the quartiles. *)

let width = 640
let height = 480
let reps = 50
let samples = 9

type row = { r_name : string; r_ms : float; r_q1 : float; r_q3 : float }

let time name f =
  let s =
    Array.init samples (fun _ ->
        let t0 = Unix.gettimeofday () in
        for _ = 1 to reps do
          f ()
        done;
        (Unix.gettimeofday () -. t0) /. float_of_int reps *. 1e3)
  in
  Array.sort compare s;
  {
    r_name = name;
    r_ms = s.(samples / 2);
    r_q1 = s.(samples / 4);
    r_q3 = s.(3 * samples / 4);
  }

let run () =
  let n = width * height in
  let src = Array.init n (fun i -> i land 0xffffff) in
  let dst = Array.make n 0 in
  let row_buf = Array.make width 0 in
  let bsrc = Bytes.make (4 * n) 'a' and bdst = Bytes.make (4 * n) 'b' in
  Gc.full_major ();
  let rows f =
    for y = 0 to height - 1 do
      f (y * width)
    done
  in
  [
    time "Array.blit, whole plane" (fun () -> Array.blit src 0 dst 0 n);
    time "Array.blit per row through a row buffer" (fun () ->
        rows (fun o ->
            Array.blit src o row_buf 0 width;
            Array.blit row_buf 0 dst o width));
    time "for loop, per row" (fun () ->
        rows (fun o ->
            for i = o to o + width - 1 do
              Array.unsafe_set dst i (Array.unsafe_get src i)
            done));
    time "Framebuffer.blit, per row" (fun () ->
        rows (fun o -> Hw.Framebuffer.blit src o dst o width));
    time "Array.fill, whole plane" (fun () -> Array.fill dst 0 n 0x5c94fc);
    time "for loop fill, whole plane" (fun () ->
        for i = 0 to n - 1 do
          Array.unsafe_set dst i 0x5c94fc
        done);
    time "Framebuffer.fill, whole plane" (fun () ->
        Hw.Framebuffer.fill dst 0 n 0x5c94fc);
    time "Bytes.blit, 4-byte pixels (floor)" (fun () ->
        Bytes.blit bsrc 0 bdst 0 (4 * n));
  ]

let render rows =
  let b = Buffer.create 1024 in
  Printf.bprintf b "%-40s %10s  %s\n" "copy of one 640x480 plane" "ms"
    "[q1-q3]";
  List.iter
    (fun r ->
      Printf.bprintf b "%-40s %10.3f  [%.3f-%.3f]\n" r.r_name r.r_ms r.r_q1
        r.r_q3)
    rows;
  Buffer.contents b
