(** Serving many queries through one session (the [ppfx serve]
    subcommand and the service benchmark both drive this). *)

type outcome = {
  query : string;  (** the query text as submitted *)
  result : (int list, string) result;
      (** sorted element ids, or a one-line error (parse failure or
          out-of-subset construct) *)
  seconds : float;  (** elapsed prepare + execute time, on {!Metrics.now} *)
}

val parse_queries : string -> string list
(** Split raw text into query lines, dropping blank lines and [#]
    comments. *)

val read_queries : in_channel -> string list
(** {!parse_queries} over a whole channel. *)

val run : Session.t -> string list -> outcome list
(** Run each query through the session, in order. Errors are captured
    per query; one bad query does not abort the batch. *)

val run_with : (string -> int list) -> string list -> outcome list
(** {!run} over any executor with the session error contract — e.g. a
    {!Ppfx_cluster.Cluster} (which lives above this library). *)
