open Graphio_graph

let convert ~input ~output =
  let g =
    Edgelist.csr_of_file ~prefix:(input ^ ": ")
      ~too_large:(fun n m -> Store.Error (Store.Too_large { n; m }))
      input
  in
  Store.write_csr output g;
  (g.Csr32.n, g.Csr32.m)
