let offset = 0xcbf29ce484222325L

let step acc v = Int64.mul (Int64.logxor acc v) 0x100000001b3L

let bytes acc b off len =
  let acc = ref acc in
  for i = off to off + len - 1 do
    acc := step !acc (Int64.of_int (Char.code (Bytes.get b i)))
  done;
  !acc

let string s = bytes offset (Bytes.unsafe_of_string s) 0 (String.length s)
