(** The three workloads: how each is started on a booted Prototype-5
    kernel, what the benchmark does between engine steps, and the oracle
    that decides which of its ops failed.

    All three are closed loops (one client that waits for each reply),
    except the USB key presses, which arrive on a seeded open-loop
    schedule in virtual time: mario plays with them; on miner nobody
    reads them. Each workload also arrives at a seeded phase of the
    scheduler tick. Miner's own inputs are fixed by the app (its chain
    starts from a fixed genesis), so these two are what the seed moves
    there, by microseconds. *)

type t = Miner | Fsmix | Mario

let of_string = function
  | "miner" -> Some Miner
  | "fsmix" -> Some Fsmix
  | "mario" -> Some Mario
  | _ -> None

let name = function Miner -> "miner" | Fsmix -> "fsmix" | Mario -> "mario"

(* miner: blockchain 4 18 5, offloading SHA-256 batches to 2 domains *)
let miner_threads = 4
let miner_difficulty = 18
let miner_blocks = 5

(* fsmix: decks of 36 iterations of open/lseek/read|write/close *)
let fsmix_decks = 112

(* mario proc: frames the game must present *)
let mario_frames = 600

let sim_domains = function
  | Miner -> max 1 (min 2 (Domain.recommended_domain_count ()))
  | Fsmix | Mario -> 1

(* A wedge fails the episode at this virtual deadline instead of hanging
   the benchmark. Each is several times the workload's normal length. *)
let deadline_ns = function
  | Miner -> Sim.Engine.sec 60
  | Fsmix -> Sim.Engine.sec 900
  | Mario -> Sim.Engine.sec 60

(* What an op is, for the ops/s metrics. *)
let op_unit = function Miner -> "hash" | Fsmix -> "syscall" | Mario -> "frame"

(* ---- per-episode state the stepping loop and oracle share ---- *)

type run = {
  kernel : Core.Kernel.t;
  task : Core.Task.t;
  mutable lat_ns : int list;  (** per-interaction virtual latencies *)
  mutable last_mark : int64;  (** virtual time of the last interaction *)
  mutable seen : int;  (** frames or UART bytes consumed so far *)
  mutable keys : (int64 * bool * int) list;  (** pending key events *)
  fsmix : Fsmix.stats;
}

(* ---- the open-loop key schedule ---- *)

let mario_keys = [| 0x50 (* left *); 0x4f (* right *); 0x2c (* space *); 0x52 (* up *) |]

(* A press every 150–600 ms, held 50–400 ms, until [until_ns]. *)
let key_schedule rng ~from_ns ~until_ns =
  let rec go t acc =
    let press = Int64.add t (Sim.Engine.ms (150 + Sim.Rng.int rng 450)) in
    if Int64.compare press until_ns >= 0 then List.rev acc
    else
      let key = mario_keys.(Sim.Rng.int rng (Array.length mario_keys)) in
      let release = Int64.add press (Sim.Engine.ms (50 + Sim.Rng.int rng 350)) in
      go release ((release, false, key) :: (press, true, key) :: acc)
  in
  go from_ns []

(* ---- start ---- *)

let program stage name =
  match
    List.find_opt
      (fun (n, _, _) -> String.equal n name)
      (Proto.Stage.program_table stage.Proto.Stage.env)
  with
  | Some (_, _, main) -> main
  | None -> invalid_arg ("vosbench: no program " ^ name)

(* Spawn the workload's task. [wrap] is the identity in untraced
   episodes and the user-side effect handler in traced ones. *)
let start w stage ~seed ~wrap =
  let kernel = stage.Proto.Stage.kernel in
  let rng = Sim.Rng.create seed in
  (* arrival phase: idle for up to one scheduler tick first *)
  let tick_ns = Sim.Engine.ms kernel.Core.Kernel.sched.Core.Sched.tick_interval_ms in
  Core.Kernel.run_for kernel (Int64.of_int (Sim.Rng.int rng (Int64.to_int tick_ns)));
  let fsmix = Fsmix.create_stats () in
  let spawn name main = Core.Kernel.spawn_user kernel ~name (wrap main) in
  let task =
    match w with
    | Miner ->
        let main = program stage "blockchain" in
        spawn "blockchain" (fun () ->
            main
              [ "blockchain"; string_of_int miner_threads;
                string_of_int miner_difficulty; string_of_int miner_blocks ])
    | Mario ->
        let main = program stage "mario" in
        spawn "mario" (fun () ->
            main [ "mario"; "proc"; string_of_int mario_frames; "0" ])
    | Fsmix ->
        spawn "fsmix"
          (Fsmix.main
             ~now:(fun () -> Core.Kernel.now kernel)
             ~seed:(Sim.Rng.next rng) ~decks:fsmix_decks fsmix)
  in
  let now = Core.Kernel.now kernel in
  let keys =
    match w with
    | Mario | Miner ->
        key_schedule rng ~from_ns:now ~until_ns:(Int64.add now (deadline_ns w))
    | Fsmix -> []
  in
  { kernel; task; lat_ns = []; last_mark = now; seen = 0; keys; fsmix }

let finished r = r.task.Core.Task.state = Core.Task.Zombie

(* ---- between steps ---- *)

(* Deliver due key events, then read mario's frame intervals or miner's
   block intervals. *)
let after_step w (r : run) =
  let now = Core.Kernel.now r.kernel in
  let rec deliver () =
    match r.keys with
    | (at, down, key) :: rest when Int64.compare at now <= 0 ->
        let usb = r.kernel.Core.Kernel.board.Hw.Board.usb in
        if down then Hw.Usb.key_down usb key else Hw.Usb.key_up usb key;
        r.keys <- rest;
        deliver ()
    | _ -> ()
  in
  deliver ();
  match w with
  | Fsmix -> ()
  | Mario ->
      let f =
        Core.Sched.frames_presented r.kernel.Core.Kernel.sched
          ~pid:r.task.Core.Task.pid
      in
      if f > r.seen then begin
        for _ = r.seen + 1 to f do
          r.lat_ns <- Int64.to_int (Int64.sub now r.last_mark) :: r.lat_ns
        done;
        r.seen <- f;
        r.last_mark <- now
      end
  | Miner ->
      let out = Core.Kernel.uart_output r.kernel in
      let len = String.length out in
      if len > r.seen then begin
        let fresh = String.sub out r.seen (len - r.seen) in
        List.iter
          (fun line ->
            if String.length line > 7 && String.sub line 0 7 = "[miner " then begin
              r.lat_ns <- Int64.to_int (Int64.sub now r.last_mark) :: r.lat_ns;
              r.last_mark <- now
            end)
          (String.split_on_char '\n' fresh);
        r.seen <- len
      end

(* ---- oracles ---- *)

type verdict = {
  ops : int;
  failed : int;
  attempted : int;
  failure : string option;  (** first failure, for the log *)
  lat_ns : int array;
  fat_kbps : float * float;  (** fsmix's FAT32 read, write throughput *)
}

let hex_prefix_ok digest printed =
  let hex = User.Sha256.hex digest in
  String.length printed <= String.length hex
  && String.equal (String.sub hex 0 (String.length printed)) printed

(* Recompute each printed block's double SHA-256 from its nonce and the
   previous block's full hash, independently of the app's own code. *)
let check_miner (r : run) ~completed =
  let out = Core.Kernel.uart_output r.kernel in
  let lines = String.split_on_char '\n' out in
  let blocks =
    List.filter_map
      (fun l ->
        try Scanf.sscanf l "[miner %d] block %d nonce=%d hash=%s" (fun _ i n h -> Some (i, n, h))
        with Scanf.Scan_failure _ | End_of_file | Failure _ -> None)
      lines
  in
  let hashes =
    List.find_map
      (fun l ->
        try Scanf.sscanf l "mined %d blocks, %d hashes" (fun b h -> Some (b, h))
        with Scanf.Scan_failure _ | End_of_file | Failure _ -> None)
      lines
  in
  let failed = ref 0 and failure = ref None in
  let bad msg =
    incr failed;
    if !failure = None then failure := Some msg
  in
  let prev = ref "genesis" in
  List.iteri
    (fun k (index, nonce, printed) ->
      if index <> k + 1 then bad (Printf.sprintf "block %d out of order" index);
      let header = Printf.sprintf "%d|%s|%d" index !prev nonce in
      let d = User.Sha256.digest (User.Sha256.digest (Bytes.of_string header)) in
      if User.Sha256.leading_zero_bits d < miner_difficulty then
        bad (Printf.sprintf "block %d misses difficulty %d" index miner_difficulty);
      if not (hex_prefix_ok d printed) then
        bad (Printf.sprintf "block %d hash %s does not recompute" index printed);
      prev := User.Sha256.hex d)
    blocks;
  if List.length blocks <> miner_blocks then
    bad (Printf.sprintf "%d blocks printed, want %d" (List.length blocks) miner_blocks);
  let ops =
    match hashes with
    | Some (b, h) when b = miner_blocks -> h
    | Some _ | None ->
        bad "no final 'mined N blocks' line";
        0
  in
  if not completed then bad "miner did not exit before the virtual deadline"
  else if r.task.Core.Task.exit_code <> 0 then
    bad (Printf.sprintf "miner exited with %d" r.task.Core.Task.exit_code);
  (ops, !failed, !failure)

let verdict w (r : run) ~completed =
  let lat_ns = Array.of_list (List.rev r.lat_ns) in
  match w with
  | Miner ->
      let ops, failed, failure = check_miner r ~completed in
      (* attempted: every hash, failures counted against it *)
      { ops; failed; attempted = max 1 (max ops failed); failure; lat_ns; fat_kbps = (0.0, 0.0) }
  | Fsmix ->
      let st = r.fsmix in
      let failed, failure =
        if not completed then
          (st.Fsmix.failed + 1, Some "fsmix did not exit before the virtual deadline")
        else if r.task.Core.Task.exit_code <> 0 then
          (st.Fsmix.failed + 1, Some (Printf.sprintf "fsmix exited with %d" r.task.Core.Task.exit_code))
        else (st.Fsmix.failed, st.Fsmix.first_failure)
      in
      {
        ops = st.Fsmix.ops;
        failed;
        attempted = max 1 st.Fsmix.ops;
        failure;
        lat_ns = Array.sub st.Fsmix.lat_ns 0 st.Fsmix.ops;
        fat_kbps = (Fsmix.fat_kbps st 0, Fsmix.fat_kbps st 1);
      }
  | Mario ->
      let frames = r.seen in
      let missing = max 0 (mario_frames - frames) in
      let failure =
        if missing > 0 then
          Some (Printf.sprintf "%d of %d frames presented before the deadline" frames mario_frames)
        else if not completed then Some "mario did not exit before the virtual deadline"
        else if r.task.Core.Task.exit_code <> 0 then
          Some (Printf.sprintf "mario exited with %d" r.task.Core.Task.exit_code)
        else None
      in
      let failed = missing + if failure <> None && missing = 0 then 1 else 0 in
      { ops = frames; failed; attempted = mario_frames; failure; lat_ns; fat_kbps = (0.0, 0.0) }
