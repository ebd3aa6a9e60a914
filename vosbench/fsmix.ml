(** fsmix: a benchmark-authored user task that makes a seeded stream of
    file syscalls against the xv6fs root and the FAT32 partition under
    /d, and checks every result against an in-benchmark byte model.

    Shape (chosen so the buffer caches miss and the SD path works):
    - [files_per_fs] files of [file_bytes] on each filesystem. Root's
      cache holds 30 x 1 KiB and FAT's 64 x 512 B, so each working set is
      about twelve times its cache; both stay well under the free space
      each filesystem has at boot (root: 1,238 KiB).
    - Each iteration opens a file, seeks to a random offset, and reads
      (two in three) or writes (one in three) 512 B to 32 KiB, then closes
      it. Every 8th write is followed by fsync. Every [recreate_every]
      iterations one file is unlinked and recreated with fresh contents.
    - Iterations come in shuffled decks holding every (filesystem,
      read/read/write, size octave) combination once; sizes within an
      octave step through eighths from deck to deck, and recreations
      alternate between the filesystems. So every seed does the same mix
      of work in a different order, at different offsets, on different
      files and bytes. Drawing the mix i.i.d. instead moved virtual
      throughput by about 5% from seed to seed.

    Files stay under free space on purpose: [Xv6fs.writei] returns
    -ENOSPC after it has already overwritten earlier blocks when a write
    runs out of blocks (POSIX expects a short count). The oracle counts
    any error as a failed op, so sizing past free space would report that
    defect rather than steady-state performance. *)

let files_per_fs = 6
let file_bytes = 64 * 1024
let recreate_every = 50
let write_chunk = 16 * 1024

type stats = {
  mutable ops : int;  (** syscalls made *)
  mutable failed : int;  (** errno results or model mismatches *)
  mutable lat_ns : int array;  (** virtual latency of every syscall *)
  mutable first_failure : string option;
  fat_bytes : int array;  (** FAT32 bytes read, written *)
  fat_ns : int array;  (** virtual ns spent in those reads, writes *)
}

let create_stats () =
  {
    ops = 0;
    failed = 0;
    lat_ns = Array.make 1024 0;
    first_failure = None;
    fat_bytes = [| 0; 0 |];
    fat_ns = [| 0; 0 |];
  }

(* FAT32 throughput in KB/s of virtual time, for reads (0) or writes (1) *)
let fat_kbps st dir =
  if st.fat_ns.(dir) = 0 then 0.0
  else float_of_int st.fat_bytes.(dir) /. 1024.0 /. (float_of_int st.fat_ns.(dir) /. 1e9)

let record st ns =
  if st.ops = Array.length st.lat_ns then begin
    let a = Array.make (2 * st.ops) 0 in
    Array.blit st.lat_ns 0 a 0 st.ops;
    st.lat_ns <- a
  end;
  st.lat_ns.(st.ops) <- Int64.to_int ns;
  st.ops <- st.ops + 1

let fail st msg =
  st.failed <- st.failed + 1;
  if st.first_failure = None then st.first_failure <- Some msg

let random_bytes rng n = Bytes.init n (fun _ -> Char.chr (Sim.Rng.int rng 256))

(* One deck: (filesystem, is_write, size octave) for every combination,
   reads twice. Octave k covers [512 * 2^k, 512 * 2^(k+1)). *)
let octaves = 6

let deck rng =
  let d =
    Array.of_list
      (List.concat_map
         (fun fs ->
           List.concat_map
             (fun w -> List.init octaves (fun k -> (fs, w, k)))
             [ false; false; true ])
         [ 0; 1 ])
  in
  for i = Array.length d - 1 downto 1 do
    let j = Sim.Rng.int rng (i + 1) in
    let x = d.(i) in
    d.(i) <- d.(j);
    d.(j) <- x
  done;
  d

let deck_len = 2 * 3 * octaves

(* The task body. [now] reads the virtual clock; every syscall is timed
   with it. [decks] bounds the stream so that its virtual work, and every
   count the benchmark digests, depend on the seed alone. *)
let main ~now ~seed ~decks st () =
  let rng = Sim.Rng.create seed in
  let timed ?fat f =
    let t0 = now () in
    let r = f () in
    let dt = Int64.sub (now ()) t0 in
    record st dt;
    (match fat with
    | Some (dir, bytes) ->
        st.fat_bytes.(dir) <- st.fat_bytes.(dir) + bytes;
        st.fat_ns.(dir) <- st.fat_ns.(dir) + Int64.to_int dt
    | None -> ());
    r
  in
  let on_fat i dir bytes = if i >= files_per_fs then Some (dir, bytes) else None in
  let paths =
    Array.init (2 * files_per_fs) (fun i ->
        if i < files_per_fs then Printf.sprintf "/fmix%d.dat" i
        else Printf.sprintf "/d/fmix%d.dat" (i - files_per_fs))
  in
  let model = Array.map (fun _ -> Bytes.empty) paths in
  let expect_int what got want =
    if got <> want then fail st (Printf.sprintf "%s: got %d, want %d" what got want)
  in
  let create i =
    let data = random_bytes rng file_bytes in
    let fd =
      timed (fun () ->
          User.Usys.open_ paths.(i)
            Core.Abi.(o_create lor o_rdwr lor o_trunc))
    in
    if fd < 0 then fail st (Printf.sprintf "open %s: %d" paths.(i) fd)
    else begin
      let off = ref 0 in
      while !off < file_bytes do
        let n = min write_chunk (file_bytes - !off) in
        let got =
          timed ?fat:(on_fat i 1 n) (fun () ->
              User.Usys.write fd (Bytes.sub data !off n))
        in
        expect_int ("write " ^ paths.(i)) got n;
        off := !off + n
      done;
      expect_int "close" (timed (fun () -> User.Usys.close fd)) 0
    end;
    model.(i) <- data
  in
  Array.iteri (fun i _ -> create i) paths;
  let writes = ref 0 in
  let cards = ref [||] in
  for it = 1 to decks * deck_len do
    if (it - 1) mod deck_len = 0 then cards := deck rng;
    let fs, is_write, k = !cards.((it - 1) mod deck_len) in
    let i = (fs * files_per_fs) + Sim.Rng.int rng files_per_fs in
    let eighth = (512 lsl k) / 8 in
    let stratum = (((it - 1) / deck_len) + k) mod 8 in
    let len = (512 lsl k) + (stratum * eighth) + Sim.Rng.int rng eighth in
    let off = Sim.Rng.int rng (file_bytes - len + 1) in
    let fd = timed (fun () -> User.Usys.open_ paths.(i) Core.Abi.o_rdwr) in
    if fd < 0 then fail st (Printf.sprintf "open %s: %d" paths.(i) fd)
    else begin
      expect_int "lseek"
        (timed (fun () -> User.Usys.lseek fd off Core.Abi.seek_set))
        off;
      if is_write then begin
        let data = random_bytes rng len in
        expect_int "write"
          (timed ?fat:(on_fat i 1 len) (fun () -> User.Usys.write fd data))
          len;
        Bytes.blit data 0 model.(i) off len;
        incr writes;
        if !writes mod 8 = 0 then
          expect_int "fsync" (timed (fun () -> User.Usys.fsync fd)) 0
      end
      else begin
        match timed ?fat:(on_fat i 0 len) (fun () -> User.Usys.read fd len) with
        | Ok got ->
            if not (Bytes.equal got (Bytes.sub model.(i) off len)) then
              fail st
                (Printf.sprintf "read %s @%d+%d: %d bytes differ from the model"
                   paths.(i) off len (Bytes.length got))
        | Error e -> fail st (Printf.sprintf "read %s: errno %d" paths.(i) e)
      end;
      expect_int "close" (timed (fun () -> User.Usys.close fd)) 0
    end;
    if it mod recreate_every = 0 then begin
      let fs = it / recreate_every mod 2 in
      let j = (fs * files_per_fs) + Sim.Rng.int rng files_per_fs in
      expect_int ("unlink " ^ paths.(j))
        (timed (fun () -> User.Usys.unlink paths.(j)))
        0;
      create j
    end
  done;
  0
