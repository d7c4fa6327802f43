(* The benchmark's own span recorder.  Spans wrap calls into the
   libraries' public functions from the benchmark's code; the libraries
   are not instrumented for it.  Each span has a name, the layer it
   charges, start and end, its parent span and the operation it belongs
   to.  Spans stay in memory and are written out when the run ends.

   Pool workers record into the same buffer, so pushes take a lock;
   parents are passed explicitly rather than kept on a per-domain stack. *)

type span = {
  id : int;
  name : string;
  layer : string;  (** [""] for an operation's root span *)
  parent : int;  (** [-1] for a root *)
  op : int;
  t0 : int;
  t1 : int;
}

type t = {
  enabled : bool;
  lock : Mutex.t;
  mutable next : int;
  mutable spans : span list;
}

let create ~enabled = { enabled; lock = Mutex.create (); next = 0; spans = [] }

let fresh_id t =
  Mutex.lock t.lock;
  let id = t.next in
  t.next <- id + 1;
  Mutex.unlock t.lock;
  id

let push t s =
  Mutex.lock t.lock;
  t.spans <- s :: t.spans;
  Mutex.unlock t.lock

(* [with_ t ~op ~parent ~layer name f] runs [f id], where [id] is this
   span's id for children to name as their parent. *)
let with_ t ~op ~parent ~layer name f =
  if not t.enabled then f (-1)
  else begin
    let id = fresh_id t in
    let t0 = Util.now_ns () in
    let finish () =
      push t { id; name; layer; parent; op; t0; t1 = Util.now_ns () }
    in
    match f id with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

(* A traced operation: a root span whose children carry the layers. *)
let op t ~op f = with_ t ~op ~parent:(-1) ~layer:"" "op" f

let dur s = s.t1 - s.t0

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let iv =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
            if a <= cb then (total, Some (ca, max cb b))
            else (total + (cb - ca), Some (a, b)))
      (0, None) iv
  in
  match last with None -> total | Some (a, b) -> total + (b - a)

(* Self time of every span: its duration minus the part of its interval
   that its children cover.  Children on other domains may overlap, hence
   the union rather than a sum. *)
let self_times t =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.t0, s.t1)
          :: Option.value (Hashtbl.find_opt children s.parent) ~default:[]))
    t.spans;
  List.map
    (fun s ->
      let kids = Option.value (Hashtbl.find_opt children s.id) ~default:[] in
      (s, dur s - covered ~lo:s.t0 ~hi:s.t1 kids))
    t.spans

type summary = {
  op_wall_s : float;  (** summed root durations *)
  layer_self_s : (string * float) list;  (** summed self time per layer *)
  unattributed_s : float;  (** summed self time of the roots *)
  name_s : (string * float) list;  (** summed duration per span name *)
}

let summarize t =
  let selfs = self_times t in
  let layer = Hashtbl.create 16 and names = Hashtbl.create 32 in
  let bump tbl k v =
    Hashtbl.replace tbl k (v +. Option.value (Hashtbl.find_opt tbl k) ~default:0.0)
  in
  let wall = ref 0 and root_self = ref 0 in
  List.iter
    (fun (s, self) ->
      if s.parent < 0 then begin
        wall := !wall + dur s;
        root_self := !root_self + self
      end
      else begin
        bump layer s.layer (float_of_int self *. 1e-9);
        bump names s.name (float_of_int (dur s) *. 1e-9)
      end)
    selfs;
  {
    op_wall_s = float_of_int !wall *. 1e-9;
    layer_self_s = Hashtbl.fold (fun k v acc -> (k, v) :: acc) layer [];
    unattributed_s = float_of_int !root_self *. 1e-9;
    name_s = Hashtbl.fold (fun k v acc -> (k, v) :: acc) names [];
  }

let write t path =
  let open Graphio_obs.Jsonx in
  let base = List.fold_left (fun m s -> min m s.t0) max_int t.spans in
  let one s =
    Obj
      [
        ("id", Int s.id);
        ("name", String s.name);
        ("layer", String s.layer);
        ("parent", Int s.parent);
        ("op", Int s.op);
        ("start_ns", Int (s.t0 - base));
        ("end_ns", Int (s.t1 - base));
      ]
  in
  to_file path (List (List.rev_map one t.spans))
