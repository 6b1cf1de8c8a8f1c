(** A fixed-size pool of OCaml 5 [Domain] workers.

    Workers drain one shared FIFO queue; {!submit} enqueues a thunk and
    returns a future, {!await} blocks until that future resolves and
    re-raises the thunk's exception (with its backtrace) if it failed.
    Each future records its submission and start timestamps on
    {!Ppfx_service.Metrics.now}, exposing the scheduler {!queue_wait} the
    cluster layer reports per shard.

    A pool of size 0 degenerates to inline execution on the caller's
    thread — useful for tests and for single-shard configurations. *)

type t

val create : int -> t
(** Spawn [n] worker domains. Raises [Invalid_argument] when [n < 0]. *)

val size : t -> int
(** Number of worker domains (0 = inline execution). *)

type 'a future

val submit : t -> (unit -> 'a) -> 'a future
(** Enqueue a task. Raises [Invalid_argument] after {!shutdown}. *)

val await : 'a future -> 'a
(** Block until the task completes; re-raises its exception on failure. *)

val queue_wait : 'a future -> float
(** Seconds the task spent queued before a worker started it (0 until a
    worker picks it up, and for inline pools). *)

val shutdown : t -> unit
(** Stop accepting tasks, let queued tasks finish, join the workers.
    Idempotent. *)

val with_pool : int -> (t -> 'a) -> 'a
(** [create] / run / [shutdown], exception-safe. *)
