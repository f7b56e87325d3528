(** Reading a whole input file. *)

val read : string -> string
(** The file's contents.  Raises [Sys_error] with a message that names
    the path, whichever step fails: the open's message names it
    already, and a failed read ([path: Is a directory] — a directory
    opens, and only reading it fails) is prefixed with it. *)
