(** Synthetic media assets standing in for the paper's game ROMs, photos,
    OGG tracks, MPEG clips and DOOM WADs (DESIGN.md's substitution rule:
    the content is generated, the formats and the decode work are real).

    Generation is memoized, so a process encodes each asset at most once
    however many kernels it boots. Cold, that one encode is most of a
    Prototype 5 boot's host cost: the two MV1 clips' forward DCTs lead,
    then the hi-res PNG's DEFLATE pass and the GIF's LZW (EXPERIMENTS.md
    "Cold set-up" has the per-asset figures). *)

let memo f =
  let cache = ref None in
  fun () ->
    match !cache with
    | Some v -> v
    | None ->
        let v = f () in
        cache := Some v;
        v

(* ---- images ---- *)

let test_card ~width ~height ~seed =
  let pixels = Array.make (width * height) 0 in
  for y = 0 to height - 1 do
    let row = y * width in
    let g = (y * 255 / height + seed * 11) land 0xff in
    for x = 0 to width - 1 do
      let r = (x * 255 / width) lxor (seed * 37) land 0xff in
      let b = ((x + y) * 127 / (width + height) * 2) land 0xff in
      pixels.(row + x) <- (r lsl 16) lor (g lsl 8) lor b
    done
  done;
  { User.Bmp.width; height; pixels }

let slide_bmp = memo (fun () -> User.Bmp.encode (test_card ~width:320 ~height:240 ~seed:1))

let slide_pngl =
  memo (fun () -> User.Pnglite.encode (test_card ~width:320 ~height:240 ~seed:2))

(* A high-res PNG for Prototype 5's "slider with high res PNGs" note. *)
let slide_pngl_hires =
  memo (fun () -> User.Pnglite.encode (test_card ~width:640 ~height:480 ~seed:5))

let slide_gifl =
  memo (fun () ->
      let width = 160 and height = 120 in
      let frames =
        Array.init 6 (fun fr ->
            let img = test_card ~width ~height ~seed:(10 + fr) in
            let _, indices = User.Giflite.quantize_332 img.User.Bmp.pixels in
            indices)
      in
      let palette, _ = User.Giflite.quantize_332 (test_card ~width ~height ~seed:10).User.Bmp.pixels in
      User.Giflite.encode
        { User.Giflite.width; height; palette; frames; delay_ms = 120 })

let cover_pngl =
  memo (fun () -> User.Pnglite.encode (test_card ~width:200 ~height:200 ~seed:3))

(* ---- audio ---- *)

let melody ~seconds ~rate =
  let notes = [| 262; 330; 392; 523; 392; 330 |] in
  Array.init (seconds * rate) (fun i ->
      let note = notes.(i / (rate / 2) mod Array.length notes) in
      let phase = float_of_int i *. float_of_int note *. 2.0 *. Float.pi /. float_of_int rate in
      int_of_float (10000.0 *. sin phase))

let track_vogg =
  memo (fun () -> User.Adpcm.pack ~rate:44100 (melody ~seconds:8 ~rate:44100))

let clip_audio_vogg =
  memo (fun () -> User.Adpcm.pack ~rate:44100 (melody ~seconds:4 ~rate:44100))

(* ---- video ---- *)

(* Frame [t] of the synthetic clip, drawn over every sample of [frame]:
   a moving luminance gradient plus a bouncing bright square. *)
let draw_frame ~width ~height ~t { User.Mv1.y_plane; u_plane; v_plane } =
  let bx = (t * 37) mod (width - 64) and by = (t * 23) mod (height - 64) in
  let ramp = Array.init width (fun x -> (x + (t * 8)) * 120 / width) in
  for y = 0 to height - 1 do
    let row = y * width in
    let shade = 40 + (y * 40 / height) in
    let box_row = y >= by && y < by + 64 in
    for x = 0 to width - 1 do
      y_plane.(row + x) <-
        (if box_row && x >= bx && x < bx + 64 then 230
         else Int.min 235 (shade + ramp.(x)))
    done
  done;
  (* u varies along a row only, v down the columns only *)
  let cw = width / 2 and ch = height / 2 in
  for cx = 0 to cw - 1 do
    u_plane.(cx) <- 100 + ((cx + t) * 56 / cw)
  done;
  for cy = 0 to ch - 1 do
    if cy > 0 then Array.blit u_plane 0 u_plane (cy * cw) cw;
    Array.fill v_plane (cy * cw) cw (160 - (cy * 48 / ch))
  done

(* one frame of planes, redrawn and encoded in turn *)
let make_clip ~width ~height ~nframes =
  let chroma = width / 2 * (height / 2) in
  let frame =
    {
      User.Mv1.y_plane = Array.make (width * height) 0;
      u_plane = Array.make chroma 0;
      v_plane = Array.make chroma 0;
    }
  in
  let frames =
    Array.init nframes (fun t ->
        draw_frame ~width ~height ~t frame;
        User.Mv1.encode_frame ~width ~height ~quality:User.Mv1.quality frame)
  in
  User.Mv1.pack { User.Mv1.width; height; fps = 30; frames }

let clip_480p = memo (fun () -> make_clip ~width:640 ~height:480 ~nframes:6)
let clip_720p = memo (fun () -> make_clip ~width:1280 ~height:720 ~nframes:4)

(* ---- the DOOM "WAD": multi-MB of assets whose load exercises FAT32
   range IO, §4.5/§5.2 ---- *)

let doom_wad =
  memo (fun () ->
      let bytes = 3 * 1024 * 1024 in
      Bytes.init bytes (fun i -> Char.chr ((i * 131) land 0xff)))

(* NES "ROMs" for the Prototype 4 game library (content is a seed the
   engine could hash into level variety). *)
let nes_rom name =
  let data = Bytes.create 32768 in
  String.iteri (fun i c -> Bytes.set data (i mod 32768) c) (name ^ "-rom");
  for i = String.length name + 4 to 32767 do
    Bytes.set_uint8 data i ((i * 17) land 0xff)
  done;
  data
