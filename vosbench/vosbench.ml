(** vosbench: boot the stock Prototype-5 kernel and run one workload
    (miner, fsmix or mario) in repeated episodes for a given number of
    host seconds.

    Usage:
      vosbench --workload W --seed N --seconds S --trace 0|1 [--out DIR]
      vosbench --workload W --seed N --setup-only

    Each episode boots a fresh kernel (the first boot in a process is
    cold and is the set-up measurement), spawns the workload, and drives
    [Sim.Engine.step] until the workload exits or hits its virtual
    deadline. With --trace 0 every episode is untraced; with --trace 1
    untraced and traced episodes alternate, so the trace's overhead and
    its determinism (identical virtual results) are measured in one run.

    The result is one JSON object on the last line of standard output.
    It carries host and virtual metrics side by side; virtual ones carry
    a v_ prefix. *)

let host_now = Monotonic_clock.now
let host_s ns = Int64.to_float ns /. 1e9

(* The per-layer rows reported by name (every workload reports all of
   them; a layer a workload never enters reads 0). *)
let syscalls =
  [ "open"; "close"; "read"; "write"; "lseek"; "fsync"; "unlink"; "pipe";
    "fork"; "wait"; "kill"; "sleep"; "uptime"; "getpid"; "mmap";
    "cacheflush"; "clone"; "join"; "sem_open"; "sem_post"; "sem_wait" ]

(* Of the lines with a registered handler, only the USB host controller
   interrupts during these workloads. *)
let irqs = [ "usb-hc" ]

(* The trace self-check: layer rows must cover the traced wall time to
   within this share (the rest is the stepping loop between steps). *)
let max_unattributed = 0.05

(* ---- set-up ---- *)

(* Every asset generator P5 staging uses (memoized per process). *)
let force_assets () =
  ignore (Proto.Stage.ramdisk_files 5);
  ignore (Proto.Stage.fat_files 5)

let boot w =
  let domains = Workloads.sim_domains w in
  Proto.Stage.boot ~prototype:5
    ~config_tweak:(fun c -> { c with Core.Kconfig.sim_domains = domains })
    ()

(* ---- counters read through public accessors ---- *)

type snap = {
  events : int;
  par_batches : int;
  par_computes : int;
  root_hits : int;
  root_misses : int;
  fat_hits : int;
  fat_misses : int;
  sd_reads : int;
  sd_writes : int;
  switches : int;
  busy_ns : int64;
  pipe_bytes : int;
  minor_words : float;
  major_words : float;
}

let kperf_counter (k : Core.Kernel.t) name =
  match
    List.find_opt
      (fun c -> String.equal c.Core.Kperf.c_name name)
      k.Core.Kernel.sched.Core.Sched.kperf.Core.Kperf.counters
  with
  | Some c -> c.Core.Kperf.c_read ()
  | None -> 0

let snap (k : Core.Kernel.t) =
  let sched = k.Core.Kernel.sched in
  let engine = k.Core.Kernel.board.Hw.Board.engine in
  let sd = k.Core.Kernel.board.Hw.Board.sd in
  let pb, pc = Sim.Engine.par_stats engine in
  let fh, fm =
    match k.Core.Kernel.fat_bc with
    | Some bc -> (Core.Bufcache.hits bc, Core.Bufcache.misses bc)
    | None -> (0, 0)
  in
  let cores = List.init sched.Core.Sched.active_cores Fun.id in
  let gc = Gc.quick_stat () in
  {
    events = Sim.Engine.events_fired engine;
    par_batches = pb;
    par_computes = pc;
    root_hits = Core.Bufcache.hits k.Core.Kernel.root_bc;
    root_misses = Core.Bufcache.misses k.Core.Kernel.root_bc;
    fat_hits = fh;
    fat_misses = fm;
    sd_reads = Hw.Sd.read_count sd;
    sd_writes = Hw.Sd.write_count sd;
    switches =
      List.fold_left (fun a c -> a + Core.Sched.core_switches sched c) 0 cores;
    busy_ns =
      List.fold_left
        (fun a c -> Int64.add a (Core.Sched.core_busy_ns sched c))
        0L cores;
    pipe_bytes = kperf_counter k "vos_pipe_bytes_total";
    minor_words = gc.Gc.minor_words;
    major_words = gc.Gc.major_words;
  }

(* ---- one episode ---- *)

type episode = {
  verdict : Workloads.verdict;
  host_ns : int64;  (** wall time of the measured phase *)
  v_ns : int64;  (** virtual time of the measured phase *)
  d : snap;  (** counter deltas over the measured phase *)
  cores : int;
  digest : string;  (** virtual results and deterministic counts *)
  tracer : Layers.t option;
}

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0 else sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))

let diff a b =
  {
    events = b.events - a.events;
    par_batches = b.par_batches - a.par_batches;
    par_computes = b.par_computes - a.par_computes;
    root_hits = b.root_hits - a.root_hits;
    root_misses = b.root_misses - a.root_misses;
    fat_hits = b.fat_hits - a.fat_hits;
    fat_misses = b.fat_misses - a.fat_misses;
    sd_reads = b.sd_reads - a.sd_reads;
    sd_writes = b.sd_writes - a.sd_writes;
    switches = b.switches - a.switches;
    busy_ns = Int64.sub b.busy_ns a.busy_ns;
    pipe_bytes = b.pipe_bytes - a.pipe_bytes;
    minor_words = b.minor_words -. a.minor_words;
    major_words = b.major_words -. a.major_words;
  }

(* The determinism digest: every virtual result and deterministic count
   of the episode. Host-side numbers (wall time, GC words) stay out. *)
let digest_of w (v : Workloads.verdict) v_ns d uart =
  let lat = Array.copy v.Workloads.lat_ns in
  Array.sort compare lat;
  Digest.to_hex
    (Digest.string
       (String.concat ","
          [
            Workloads.name w; string_of_int v.Workloads.ops;
            string_of_int v.Workloads.failed; Int64.to_string v_ns;
            string_of_int (Array.length lat); string_of_int (percentile lat 0.5);
            string_of_int (percentile lat 0.99); string_of_int d.events;
            string_of_int d.par_batches; string_of_int d.par_computes;
            string_of_int d.root_hits; string_of_int d.root_misses;
            string_of_int d.fat_hits; string_of_int d.fat_misses;
            string_of_int d.sd_reads; string_of_int d.sd_writes;
            string_of_int d.switches; Int64.to_string d.busy_ns;
            string_of_int d.pipe_bytes; Digest.to_hex (Digest.string uart);
          ]))

(* Boot a kernel and spawn the workload: an episode's set-up. *)
let prepare w ~seed ~traced =
  let stage = boot w in
  let tracer = if traced then Some (Layers.create ()) else None in
  let wrap =
    match tracer with
    | Some tr ->
        Layers.wrap_kernel tr stage.Proto.Stage.kernel;
        fun main -> Layers.user tr main
    | None -> Fun.id
  in
  (stage, tracer, Workloads.start w stage ~seed ~wrap)

(* The measured phase: drive the engine until the workload exits or
   reaches its virtual deadline. *)
let measure w (stage, tracer, r) =
  (* collect the set-up's garbage first, so every measured phase starts
     from the same heap state *)
  Gc.full_major ();
  let kernel = stage.Proto.Stage.kernel in
  let engine = kernel.Core.Kernel.board.Hw.Board.engine in
  let deadline = Int64.add (Core.Kernel.now kernel) (Workloads.deadline_ns w) in
  let v0 = Core.Kernel.now kernel in
  let s0 = snap kernel in
  let h0 = host_now () in
  let step =
    match tracer with
    | Some tr -> fun () -> Layers.step tr engine
    | None -> fun () -> Sim.Engine.step engine
  in
  let rec loop () =
    if (not (Workloads.finished r)) && Int64.compare (Sim.Engine.now engine) deadline < 0
    then
      if step () then begin
        Workloads.after_step w r;
        loop ()
      end
  in
  loop ();
  let h1 = host_now () in
  let completed = Workloads.finished r in
  let v1 = Core.Kernel.now kernel in
  let d = diff s0 (snap kernel) in
  let verdict = Workloads.verdict w r ~completed in
  let v_ns = Int64.sub v1 v0 in
  {
    verdict;
    host_ns = Int64.sub h1 h0;
    v_ns;
    d;
    cores = kernel.Core.Kernel.sched.Core.Sched.active_cores;
    digest = digest_of w verdict v_ns d (Core.Kernel.uart_output kernel);
    tracer;
  }

(* ---- statistics ---- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Share of a traced episode's wall time that no layer row covers: the
   stepping loop between steps. *)
let unattributed e =
  let tr = Option.get e.tracer in
  1.0 -. (float_of_int (Layers.attributed_ns tr) /. Int64.to_float e.host_ns)

(* ---- output ---- *)

let metric buf name value unit =
  if Buffer.length buf > 1 then Buffer.add_char buf ',';
  Printf.bprintf buf "\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}" name value unit

let end_to_end ~setup_s ~first_peak_words (eps : episode list) buf =
  let e = List.hd eps in
  let v = e.verdict in
  metric buf "setup_s" setup_s "s";
  metric buf "host_ops_per_s"
    (median
       (List.map
          (fun e -> float_of_int e.verdict.Workloads.ops /. host_s e.host_ns)
          eps))
    ("1/s");
  metric buf "peak_heap_mb" (float_of_int (first_peak_words * (Sys.word_size / 8)) /. 1048576.0) "MB";
  metric buf "v_ops_per_s"
    (float_of_int v.Workloads.ops /. Sim.Engine.to_sec e.v_ns)
    "1/s"

(* Per-layer metrics: each is the median over the run's traced
   episodes (GC words: over its untraced ones, as the tracer allocates). *)
let per_layer ~setup ~(untraced : episode list) ~(traced : episode list) buf =
  let assets_ns, boot_ns = setup in
  let m = metric buf in
  let med f = median (List.map f traced) in
  let tr e = Option.get e.tracer in
  let row n e = Layers.ms (Layers.row_ns (tr e) n) in
  let count n e = float_of_int (Layers.row_count (tr e) n) in
  let lat_p p e =
    let lat = Array.copy e.verdict.Workloads.lat_ns in
    Array.sort compare lat;
    float_of_int (percentile lat p) /. 1e3
  in
  m "v_lat_us_p50" (med (lat_p 0.5)) "us";
  m "v_lat_us_p99" (med (lat_p 0.99)) "us";
  m "setup.assets_s" (host_s assets_ns) "s";
  m "setup.boot_s" (host_s boot_ns) "s";
  m "user.self_ms" (med (row "user.self")) "ms";
  m "user.offload_ms"
    (med (fun e ->
         row "user.offload" e +. Layers.ms (Atomic.get (tr e).Layers.par_offload_ns)))
    "ms";
  m "sim.rest_ms" (med (row "sim.rest")) "ms";
  m "sim.events" (med (fun e -> float_of_int e.d.events)) "count";
  let step_p p e = float_of_int (percentile (Layers.sorted_steps (tr e)) p) in
  m "sim.step_ns_p50" (med (step_p 0.5)) "ns";
  m "sim.step_ns_p99" (med (step_p 0.99)) "ns";
  m "sim.slowdown" (med (fun e -> Int64.to_float e.host_ns /. Int64.to_float e.v_ns)) "ratio";
  m "sim.par_batches" (med (fun e -> float_of_int e.d.par_batches)) "count";
  m "sim.par_computes" (med (fun e -> float_of_int e.d.par_computes)) "count";
  m "sim.par_width"
    (med (fun e ->
         if e.d.par_batches = 0 then 0.0
         else float_of_int e.d.par_computes /. float_of_int e.d.par_batches))
    "ratio";
  List.iter
    (fun n ->
      m (Printf.sprintf "syscall.%s.count" n) (med (count ("syscall." ^ n))) "count";
      m (Printf.sprintf "syscall.%s.host_ms" n) (med (row ("syscall." ^ n))) "ms")
    syscalls;
  List.iter
    (fun n ->
      m (Printf.sprintf "irq.%s.count" n) (med (count ("irq." ^ n))) "count";
      m (Printf.sprintf "irq.%s.host_ms" n) (med (row ("irq." ^ n))) "ms")
    irqs;
  let ratio h ms = if h + ms = 0 then 0.0 else float_of_int h /. float_of_int (h + ms) in
  m "bufcache.root.hit_ratio" (med (fun e -> ratio e.d.root_hits e.d.root_misses)) "ratio";
  m "bufcache.root.misses" (med (fun e -> float_of_int e.d.root_misses)) "count";
  m "bufcache.fat.hit_ratio" (med (fun e -> ratio e.d.fat_hits e.d.fat_misses)) "ratio";
  m "bufcache.fat.misses" (med (fun e -> float_of_int e.d.fat_misses)) "count";
  m "fs.fat.read_kbps" (med (fun e -> fst e.verdict.Workloads.fat_kbps)) "KB/s";
  m "fs.fat.write_kbps" (med (fun e -> snd e.verdict.Workloads.fat_kbps)) "KB/s";
  m "sd.reads" (med (fun e -> float_of_int e.d.sd_reads)) "count";
  m "sd.writes" (med (fun e -> float_of_int e.d.sd_writes)) "count";
  m "sched.ctx_switches" (med (fun e -> float_of_int e.d.switches)) "count";
  m "ipc.pipe_bytes" (med (fun e -> float_of_int e.d.pipe_bytes)) "count";
  m "sched.busy_frac"
    (med (fun e ->
         Int64.to_float e.d.busy_ns /. (float_of_int e.cores *. Int64.to_float e.v_ns)))
    "ratio";
  m "gc.minor_mw" (median (List.map (fun e -> e.d.minor_words /. 1e6) untraced)) "Mwords";
  m "gc.major_mw" (median (List.map (fun e -> e.d.major_words /. 1e6) untraced)) "Mwords";
  (* the cold first episode runs on a growing heap; compare warm ones *)
  let warm = match untraced with _ :: (_ :: _ as rest) -> rest | l -> l in
  m "trace.overhead"
    (med (fun e -> Int64.to_float e.host_ns)
    /. median (List.map (fun e -> Int64.to_float e.host_ns) warm))
    "ratio";
  m "trace.unattributed_frac" (med unattributed) "ratio"

(* ---- main ---- *)

let () =
  let t_start = host_now () in
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let setup_only = ref false and out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "miner|fsmix|mario");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "host seconds to measure");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics; 1: per-layer metrics");
      ("--setup-only", Arg.Set setup_only, "measure one cold set-up and exit");
      ("--out", Arg.Set_string out, "directory for the traced run's span log");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "vosbench --workload W --seed N --seconds S --trace 0|1";
  let w =
    match Workloads.of_string !workload with
    | Some w -> w
    | None ->
        prerr_endline ("vosbench: unknown workload " ^ !workload);
        exit 2
  in
  let seed = Int64.of_int !seed in
  (* cold set-up: assets, then a P5 boot, then the workload's spawn —
     timed as one episode's set-up, from process start *)
  let h_assets = host_now () in
  force_assets ();
  let h_boot = host_now () in
  let cold = prepare w ~seed ~traced:false in
  let h_ready = host_now () in
  let v_boot_ns =
    let stage, _, _ = cold in
    stage.Proto.Stage.kernel.Core.Kernel.boot_ready_ns
  in
  let setup_s = host_s (Int64.sub h_ready t_start) in
  let setup = (Int64.sub h_boot h_assets, Int64.sub h_ready h_boot) in
  if !setup_only then begin
    Printf.printf "{\"setup_s\":%.17g}\n" setup_s;
    exit 0
  end;
  let traced_run = !trace = 1 in
  let budget = !seconds *. 1e9 in
  let m0 = host_now () in
  (* the cold set-up's kernel serves the first episode; dropping it
     afterwards keeps one kernel alive at a time *)
  let cold = ref (Some cold) in
  (* peak heap of the cold process through its first episode: what one
     vos run needs (later episodes overlap two kernels briefly) *)
  let first_peak_words = ref 0 in
  (* Episodes run until the next one would end past the budget, judged
     by the mean episode so far (set-up included); at least one, and in
     a traced run at least a traced one and a warm untraced one. *)
  let rec run acc n =
    let elapsed = Int64.to_float (Int64.sub (host_now ()) m0) in
    let per_episode = if n = 0 then 0.0 else elapsed /. float_of_int n in
    let need_both = traced_run && n < 3 in
    if n > 0 && (not need_both) && elapsed +. per_episode > budget then List.rev acc
    else
      let prepared =
        match !cold with
        | Some c ->
            cold := None;
            c
        | None ->
            (* free the previous episode before booting the next (its
               kernel stays reachable through the kernel's module-level
               hooks until the new boot replaces them) *)
            Gc.full_major ();
            prepare w ~seed ~traced:(traced_run && n mod 2 = 1)
      in
      let e = measure w prepared in
      if n = 0 then first_peak_words := (Gc.quick_stat ()).Gc.top_heap_words;
      run (e :: acc) (n + 1)
  in
  let eps = run [] 0 in
  let untraced = List.filter (fun e -> e.tracer = None) eps in
  let traced = List.filter (fun e -> e.tracer <> None) eps in
  let first = List.hd eps in
  let deterministic = List.for_all (fun e -> String.equal e.digest first.digest) eps in
  let failed = List.fold_left (fun a e -> a + e.verdict.Workloads.failed) 0 eps in
  let attempted = List.fold_left (fun a e -> a + e.verdict.Workloads.attempted) 0 eps in
  List.iteri
    (fun i e ->
      Printf.printf "episode %d%s: %d ops in %.4f host s, %.6f virtual s, digest %s\n" i
        (if e.tracer = None then "" else " (traced)")
        e.verdict.Workloads.ops (host_s e.host_ns) (Sim.Engine.to_sec e.v_ns) e.digest;
      match e.verdict.Workloads.failure with
      | Some msg -> Printf.printf "failure: %s\n" msg
      | None -> ())
    eps;
  if not deterministic then
    Printf.printf "failure: virtual results differ between episodes (%s)\n"
      (String.concat " " (List.map (fun e -> e.digest) eps));
  let self_check_ok =
    match traced with
    | [] -> true
    | e :: _ ->
        let worst = List.fold_left (fun a e -> Float.max a (unattributed e)) 0.0 traced in
        Printf.printf
          "trace: %d untraced + %d traced episodes; layer rows cover at least \
           %.2f%% of each traced wall (limit: within %.0f%%)\n"
          (List.length untraced) (List.length traced) (100.0 *. (1.0 -. worst))
          (100.0 *. max_unattributed);
        let tr = Option.get e.tracer in
        Printf.printf "rows:";
        for i = 0 to tr.Layers.n_rows - 1 do
          if tr.Layers.count.(i) > 0 || i = Layers.r_rest then
            Printf.printf " %s=%.1fms/%d" tr.Layers.names.(i) (Layers.ms tr.Layers.ns.(i))
              tr.Layers.count.(i)
        done;
        print_newline ();
        if !out <> "" then
          Layers.write_spans tr
            (Filename.concat !out
               (Printf.sprintf "%s-%Ld.spans.tsv" (Workloads.name w) seed));
        worst <= max_unattributed
  in
  Printf.printf
    "context: workload=%s op=%s episodes=%d digest=%s nproc=%d ocaml=%s \
     sim_domains=%d v_boot_s=%.6f\n"
    (Workloads.name w) (Workloads.op_unit w) (List.length eps) first.digest
    (Domain.recommended_domain_count ()) Sys.ocaml_version
    (Workloads.sim_domains w)
    (Int64.to_float v_boot_ns /. 1e9);
  let buf = Buffer.create 4096 in
  Buffer.add_char buf '{';
  if traced_run then per_layer ~setup ~untraced ~traced buf
  else end_to_end ~setup_s ~first_peak_words:!first_peak_words eps buf;
  Buffer.add_char buf '}';
  let correct = failed = 0 && deterministic && self_check_ok in
  Printf.printf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":%s}\n" correct
    attempted failed (Buffer.contents buf)
