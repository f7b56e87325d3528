let read path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  try In_channel.input_all ic
  with Sys_error msg -> raise (Sys_error (path ^ ": " ^ msg))
