(* Helpers shared by the workloads: clocks, order statistics, process
   memory, the host probe and scratch directories. *)

let now_ns = Graphio_obs.Clock.now_ns
let elapsed_s = Graphio_obs.Clock.elapsed_s

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n land 1 = 1 then a.(n / 2)
  else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* The highest percentile with at least [tail_beyond] samples above it:
   with [n] sorted samples that is the [(n - tail_beyond)]-th smallest.
   With [2 * tail_beyond] samples or fewer that percentile is at or below
   the median, so the maximum stands in, and the recorded count beyond it
   (0) says so. *)
type tail = { value : float; percentile : float; samples : int; beyond : int }

let tail_beyond = 10

let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then { value = nan; percentile = nan; samples = 0; beyond = 0 }
  else if n > 2 * tail_beyond then
    let k = n - tail_beyond in
    {
      value = a.(k - 1);
      percentile = 100.0 *. float_of_int k /. float_of_int n;
      samples = n;
      beyond = tail_beyond;
    }
  else { value = a.(n - 1); percentile = 100.0; samples = n; beyond = 0 }

let sum = List.fold_left ( +. ) 0.0

(* ------------------------------------------------------------------ *)
(* Process memory                                                      *)

let proc_file pid name =
  match pid with
  | None -> Printf.sprintf "/proc/self/%s" name
  | Some p -> Printf.sprintf "/proc/%d/%s" p name

(* Peak resident set ([VmHWM]) in MB, of this process or of [pid]. *)
let peak_rss_mb ?pid () =
  let ic = open_in (proc_file pid "status") in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf
              (String.sub line 6 (String.length line - 6))
              " %d kB"
              (fun kb -> float_of_int kb /. 1024.0)
        | _ -> go ()
        | exception End_of_file -> failwith "VmHWM missing from /proc status"
      in
      go ())

(* Restart the peak-RSS count at the current RSS, so a later
   [peak_rss_mb] covers only what ran since (Linux [clear_refs] code 5). *)
let reset_peak_rss ?pid () =
  let oc = open_out (proc_file pid "clear_refs") in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc "5")

(* ------------------------------------------------------------------ *)
(* Host probe                                                          *)

(* A fixed integer loop (about a millisecond here) timed between
   operations.  It measures how fast the host runs right now, and is
   reported next to the metrics as a diagnostic; nothing is scaled by it. *)
let probe_sink = ref 0

let probe () =
  let t0 = now_ns () in
  let x = ref 0x2545F491 in
  for _ = 1 to 400_000 do
    x := (!x * 1103515245) + 12345;
    x := !x lxor (!x lsr 17)
  done;
  probe_sink := !x;
  elapsed_s t0

(* Probes are taken at most every [probe_every_s] of timed work. *)
type prober = { mutable last : int; mutable samples : float list }

let probe_every_s = 0.5
let prober () = { last = now_ns (); samples = [ probe () ] }

let maybe_probe p =
  if elapsed_s p.last >= probe_every_s then begin
    p.samples <- probe () :: p.samples;
    p.last <- now_ns ()
  end

(* ------------------------------------------------------------------ *)
(* Scratch space, always under the checkout's .bench_tmp               *)

let tmp_root = ".bench_tmp"

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

(* A fresh, empty scratch directory [.bench_tmp/<name>]. *)
let fresh_dir name =
  let d = Filename.concat tmp_root name in
  rm_rf d;
  mkdir_p d;
  d

(* ------------------------------------------------------------------ *)
(* Answer checks                                                       *)

let within ~tol a b = Float.abs (a -. b) <= tol

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
