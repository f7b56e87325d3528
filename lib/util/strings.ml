let starts_with_ci ~prefix s =
  String.length s >= String.length prefix
  && String.equal
       (String.lowercase_ascii (String.sub s 0 (String.length prefix)))
       (String.lowercase_ascii prefix)
