(** Spool-directory ingestion for the daemon.

    A producer drops [*.jobs] files into a directory; the daemon picks
    each up exactly once, processes it, and renames it to
    [<name>.jobs.done] so a crash-restarted daemon never reruns a batch
    it already answered.  Files are processed in lexicographic name
    order within a scan, so producers control ordering by naming
    ([0001-foo.jobs], [0002-bar.jobs]). *)

val scan : string -> string list
(** The directory's unprocessed [*.jobs] files (full paths), sorted.
    Raises [Sys_error] when the directory cannot be read. *)

val watch :
  ?poll:float ->
  ?max_batches:int ->
  ?stop:(unit -> bool) ->
  once:bool ->
  string ->
  process:(string -> unit) ->
  int
(** Scan-process-rename loop.  [process path] handles one batch file;
    when it returns (normally {e or} by exception) the file is marked
    done — a batch whose processing raised must not be retried forever.
    [once] stops after the first scan pass even if it was empty;
    otherwise the loop sleeps [poll] seconds (default 0.5) between
    scans and runs until [max_batches] files have been processed
    ([max_batches] also bounds a [once] pass) or [stop ()] turns true —
    the daemon's SIGINT/SIGTERM flag, polled between batches so a
    signal never interrupts one mid-flight.  Returns the number of
    batches processed. *)
