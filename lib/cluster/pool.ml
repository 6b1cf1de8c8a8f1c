(* A fixed pool of OCaml 5 [Domain] workers draining one FIFO task
   queue. Tasks are closures; results travel through per-task futures
   guarded by their own mutex/condition, so [await] blocks only the
   caller. The pool also timestamps submission and start, giving the
   scheduler queue-wait the cluster records per shard. *)

type task = { run : unit -> unit }

type t = {
  mutex : Mutex.t;
  nonempty : Condition.t;
  queue : task Queue.t;
  mutable closed : bool;
  mutable domains : unit Domain.t list;
  size : int;
}

type 'a state =
  | Pending
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace

type 'a future = {
  fmutex : Mutex.t;
  fdone : Condition.t;
  mutable state : 'a state;
  submitted_at : float;
  mutable started_at : float;  (** = submitted_at until a worker picks it up *)
}

let rec worker_loop pool =
  let task =
    Mutex.lock pool.mutex;
    let rec wait () =
      if not (Queue.is_empty pool.queue) then Some (Queue.pop pool.queue)
      else if pool.closed then None
      else begin
        Condition.wait pool.nonempty pool.mutex;
        wait ()
      end
    in
    let t = wait () in
    Mutex.unlock pool.mutex;
    t
  in
  match task with
  | None -> ()
  | Some task ->
    task.run ();
    worker_loop pool

let create n =
  if n < 0 then invalid_arg "Pool.create: negative size";
  let pool =
    {
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      closed = false;
      domains = [];
      size = n;
    }
  in
  pool.domains <- List.init n (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  pool

let size t = t.size

let resolve fut state =
  Mutex.lock fut.fmutex;
  fut.state <- state;
  Condition.broadcast fut.fdone;
  Mutex.unlock fut.fmutex

let submit pool f =
  let now = Ppfx_service.Metrics.now () in
  let fut =
    {
      fmutex = Mutex.create ();
      fdone = Condition.create ();
      state = Pending;
      submitted_at = now;
      started_at = now;
    }
  in
  let run () =
    fut.started_at <- Ppfx_service.Metrics.now ();
    match f () with
    | v -> resolve fut (Done v)
    | exception e -> resolve fut (Failed (e, Printexc.get_raw_backtrace ()))
  in
  if pool.size = 0 then run ()
  else begin
    Mutex.lock pool.mutex;
    if pool.closed then begin
      Mutex.unlock pool.mutex;
      invalid_arg "Pool.submit: pool is shut down"
    end;
    Queue.push { run } pool.queue;
    Condition.signal pool.nonempty;
    Mutex.unlock pool.mutex
  end;
  fut

let is_pending = function Pending -> true | Done _ | Failed _ -> false

let await fut =
  Mutex.lock fut.fmutex;
  while is_pending fut.state do
    Condition.wait fut.fdone fut.fmutex
  done;
  let state = fut.state in
  Mutex.unlock fut.fmutex;
  match state with
  | Pending -> assert false
  | Done v -> v
  | Failed (e, bt) -> Printexc.raise_with_backtrace e bt

let queue_wait fut = fut.started_at -. fut.submitted_at

let shutdown pool =
  Mutex.lock pool.mutex;
  if not pool.closed then begin
    pool.closed <- true;
    Condition.broadcast pool.nonempty
  end;
  let domains = pool.domains in
  pool.domains <- [];
  Mutex.unlock pool.mutex;
  List.iter Domain.join domains

let with_pool n f =
  let pool = create n in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)
