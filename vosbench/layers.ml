(** Host-time attribution for the traced run, from outside the program.

    Nothing here changes the simulated machine: the wrappers only read the
    host clock around calls the benchmark already makes or that the kernel
    makes through its public mutable hooks ([Sched.t.dispatch] and
    [Sched.t.irq_drivers]), and the user-side effect handler re-performs
    every effect it intercepts unchanged. Virtual time is therefore the
    same with and without tracing, which the benchmark checks.

    Attribution is by layer switch: a stack of rows, where the row on top
    is charged the host time until the next switch. Inside an engine step
    the bottom row is [sim.rest] (engine queue, ticks, scheduler, kernel
    threads, device callbacks without a public hook); every other row is
    pushed on entry to its layer and popped on exit, so each row's time
    is its self time and the rows of a step add up to the step's wall
    time. Time between steps (the stepping loop itself) is left
    unattributed, which is what the self-check measures. *)

let now = Monotonic_clock.now

(* rows: 0 sim.rest, 1 user.self, 2 user.offload, then one per syscall,
   then one per IRQ line seen *)
let r_rest = 0
let r_user = 1
let r_offload = 2
let syscall_base = 3
let n_syscalls = List.length Core.Abi.syscall_names
let max_rows = syscall_base + n_syscalls + 32

(* A capped in-memory span log, written out when the benchmark ends. *)
let max_spans = 200_000

type t = {
  names : string array;
  ns : int array;  (** self host ns per row *)
  count : int array;  (** entries per row *)
  mutable n_rows : int;
  stack : int array;
  span_ids : int array;  (** span-log index of each open span *)
  mutable depth : int;
  mutable last : int;  (** host ns of the last switch *)
  mutable steps : int array;  (** host ns of every step *)
  mutable n_steps : int;
  main_domain : Domain.id;
  par_offload_ns : int Atomic.t;  (** computes run on pool workers *)
  (* span log: row, start, end, parent span (-1 = the step itself) *)
  sp_row : int array;
  sp_start : int array;
  sp_end : int array;
  sp_parent : int array;
  mutable n_spans : int;
  mutable dropped_spans : int;
}

let create () =
  let names = Array.make max_rows "" in
  names.(r_rest) <- "sim.rest";
  names.(r_user) <- "user.self";
  names.(r_offload) <- "user.offload";
  List.iteri
    (fun i n -> names.(syscall_base + i) <- "syscall." ^ n)
    Core.Abi.syscall_names;
  {
    names;
    ns = Array.make max_rows 0;
    count = Array.make max_rows 0;
    n_rows = syscall_base + n_syscalls;
    stack = Array.make 256 0;
    span_ids = Array.make 256 (-1);
    depth = 0;
    last = 0;
    steps = Array.make 65536 0;
    n_steps = 0;
    main_domain = Domain.self ();
    par_offload_ns = Atomic.make 0;
    sp_row = Array.make max_spans 0;
    sp_start = Array.make max_spans 0;
    sp_end = Array.make max_spans 0;
    sp_parent = Array.make max_spans 0;
    n_spans = 0;
    dropped_spans = 0;
  }

let find t name =
  let rec go i =
    if i = t.n_rows then None
    else if String.equal t.names.(i) name then Some i
    else go (i + 1)
  in
  go 0

let row_named t name =
  match find t name with
  | Some i -> i
  | None ->
      let i = t.n_rows in
      t.names.(i) <- name;
      t.n_rows <- i + 1;
      i

let enter t row =
  let now = Int64.to_int (now ()) in
  let d = t.depth in
  let top = t.stack.(d - 1) in
  t.ns.(top) <- t.ns.(top) + (now - t.last);
  t.last <- now;
  t.stack.(d) <- row;
  t.count.(row) <- t.count.(row) + 1;
  (if t.n_spans < max_spans then begin
     let s = t.n_spans in
     t.sp_row.(s) <- row;
     t.sp_start.(s) <- now;
     t.sp_parent.(s) <- t.span_ids.(d - 1);
     t.span_ids.(d) <- s;
     t.n_spans <- s + 1
   end
   else begin
     t.span_ids.(d) <- -1;
     t.dropped_spans <- t.dropped_spans + 1
   end);
  t.depth <- d + 1

let leave t =
  let now = Int64.to_int (now ()) in
  let d = t.depth - 1 in
  let top = t.stack.(d) in
  t.ns.(top) <- t.ns.(top) + (now - t.last);
  t.last <- now;
  let s = t.span_ids.(d) in
  if s >= 0 then t.sp_end.(s) <- now;
  t.depth <- d

(* One engine step with [sim.rest] at the bottom of the stack. *)
let step t engine =
  let t0 = Int64.to_int (now ()) in
  t.last <- t0;
  t.stack.(0) <- r_rest;
  t.span_ids.(0) <- -1;
  t.depth <- 1;
  let more = Sim.Engine.step engine in
  let t1 = Int64.to_int (now ()) in
  t.ns.(r_rest) <- t.ns.(r_rest) + (t1 - t.last);
  t.depth <- 0;
  let dt = t1 - t0 in
  if t.n_steps = Array.length t.steps then begin
    let a = Array.make (2 * t.n_steps) 0 in
    Array.blit t.steps 0 a 0 t.n_steps;
    t.steps <- a
  end;
  t.steps.(t.n_steps) <- dt;
  t.n_steps <- t.n_steps + 1;
  more

(* ---- hooks into the kernel's public mutable dispatch points ---- *)

let wrap_kernel t (kernel : Core.Kernel.t) =
  let sched = kernel.Core.Kernel.sched in
  let dispatch = sched.Core.Sched.dispatch in
  sched.Core.Sched.dispatch <-
    (fun ctx ->
      enter t (syscall_base + Core.Abi.syscall_index ctx.Core.Sched.call);
      dispatch ctx;
      leave t);
  sched.Core.Sched.irq_drivers <-
    List.map
      (fun (line, handler) ->
        let row = row_named t ("irq." ^ Hw.Irq.describe line) in
        ( line,
          fun () ->
            enter t row;
            handler ();
            leave t ))
      sched.Core.Sched.irq_drivers

(* ---- the user side: an effect handler around each task's main ---- *)

let timed_compute t fn () =
  if Domain.self () = t.main_domain then begin
    enter t r_offload;
    let r = fn () in
    leave t;
    r
  end
  else begin
    let t0 = now () in
    let r = fn () in
    ignore
      (Atomic.fetch_and_add t.par_offload_ns
         (Int64.to_int (Int64.sub (now ()) t0)));
    r
  end

(* Run [main] as user code: [user.self] is on top while it runs, and
   every trap, burn or offload pops it before the effect reaches the
   kernel and pushes it again when the kernel resumes the task. Fork and
   clone children get the same handler, so every user instruction of a
   workload is inside it. *)
let rec user t main () =
  let open Effect.Deep in
  enter t r_user;
  match_with main ()
    {
      retc =
        (fun r ->
          leave t;
          r);
      exnc =
        (fun e ->
          leave t;
          raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Core.Abi.Sys call ->
              let call =
                match call with
                | Core.Abi.Fork body -> Core.Abi.Fork (user t body)
                | Core.Abi.Clone body -> Core.Abi.Clone (user t body)
                | c -> c
              in
              Some
                (fun (k : (a, _) continuation) ->
                  leave t;
                  let r = Effect.perform (Core.Abi.Sys call) in
                  enter t r_user;
                  continue k r)
          | Core.Abi.Burn cycles ->
              Some
                (fun (k : (a, _) continuation) ->
                  leave t;
                  Effect.perform (Core.Abi.Burn cycles);
                  enter t r_user;
                  continue k ())
          | Core.Abi.Offload (cycles, fn) ->
              Some
                (fun (k : (a, _) continuation) ->
                  leave t;
                  let r =
                    Effect.perform (Core.Abi.Offload (cycles, timed_compute t fn))
                  in
                  enter t r_user;
                  continue k r)
          | _ -> None);
    }

(* ---- results ---- *)

let ms ns = float_of_int ns /. 1e6

let row_ns t name = match find t name with Some i -> t.ns.(i) | None -> 0
let row_count t name = match find t name with Some i -> t.count.(i) | None -> 0

(* Sum of the rows that cover the main thread's time inside steps. The
   parallel part of offload computes ran beside it and is excluded. *)
let attributed_ns t = Array.fold_left ( + ) 0 (Array.sub t.ns 0 t.n_rows)

(* Host ns of every step, sorted. *)
let sorted_steps t =
  let a = Array.sub t.steps 0 t.n_steps in
  Array.sort compare a;
  a

(* Write the span log and the row table as tab-separated text. *)
let write_spans t path =
  let oc = open_out path in
  Printf.fprintf oc "# rows: name\tself_ns\tcount\n";
  for i = 0 to t.n_rows - 1 do
    if t.count.(i) > 0 || i = r_rest then
      Printf.fprintf oc "row\t%s\t%d\t%d\n" t.names.(i) t.ns.(i) t.count.(i)
  done;
  Printf.fprintf oc "# spans: id\tname\tstart_ns\tend_ns\tparent (-1 = step)\n";
  Printf.fprintf oc "# %d spans kept, %d dropped past the cap\n" t.n_spans
    t.dropped_spans;
  for s = 0 to t.n_spans - 1 do
    Printf.fprintf oc "span\t%d\t%s\t%d\t%d\t%d\n" s t.names.(t.sp_row.(s))
      t.sp_start.(s) t.sp_end.(s) t.sp_parent.(s)
  done;
  close_out oc
