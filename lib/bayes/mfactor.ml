let max_entries = 1 lsl 25

let of_cpd ~card node ~parents p =
  let vars = Array.append [| node |] parents in
  let strides = Array.make (Array.length vars) 1 in
  let size = ref 1 in
  Array.iteri
    (fun j v ->
      let c = card v in
      if c < 1 then invalid_arg "Mfactor.of_cpd: cardinality < 1";
      strides.(j) <- !size;
      size := !size * c;
      if !size > max_entries then invalid_arg "Mfactor.of_cpd: table too large")
    vars;
  let k = card node in
  let last = Array.map (fun v -> card v - 1) parents in
  let values = Array.make (Array.length parents) 0 in
  let table = Array.create_float !size in
  for row = 0 to (!size / k) - 1 do
    for s = 0 to k - 1 do
      table.((row * k) + s) <- p values s
    done;
    (* the next parent configuration, the first parent fastest *)
    let i = ref 0 in
    while !i < Array.length last && values.(!i) = last.(!i) do
      values.(!i) <- 0;
      incr i
    done;
    if !i < Array.length last then values.(!i) <- values.(!i) + 1
  done;
  { Netdiv_graph.Bucket.vars; strides; table; off = 0 }
