(* How fast the machine runs the kind of OCaml code the mediator is made
   of, at this moment.

   The benchmark's hosts are shared virtual machines whose speed is not
   steady: for seconds to minutes at a time, other tenants make the same
   work 1.3-2x slower. The in-process workloads therefore time a probe
   around every stretch of operations and report each operation's time
   multiplied by [reference_s] / (the probe's time then). That is the time
   the operation would take at the speed the probe reads on a quiet
   machine of the reference type.

   The probe does what a mediator does most: it builds small maps, hash
   tables of strings and sorted lists from pseudo-random keys, looks
   things up in them and drops them. Of the probes tried (a register-only
   loop, random walks over 2 and 4 MB buffers, a loop allocating pairs,
   this one), its time followed the slowdowns of all three in-process
   workloads most closely. It keeps nothing from one round to the next, so
   the collector promotes little of it, and its time does not depend on the
   heap the code under test has built. *)

module Int_map = Map.Make (Int)

let round k =
  let x = ref (k * 7919) in
  let next () =
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    !x
  in
  let acc = ref 0 in
  let m = ref Int_map.empty in
  for _ = 1 to 200 do
    let key = next () land 1023 in
    m := Int_map.add key (key + k) !m
  done;
  for _ = 1 to 200 do
    match Int_map.find_opt (next () land 1023) !m with Some v -> acc := !acc + v | None -> ()
  done;
  let h = Hashtbl.create 64 in
  for i = 1 to 200 do
    Hashtbl.replace h (string_of_int (next () land 511)) i
  done;
  Hashtbl.iter (fun key v -> acc := !acc + String.length key + v) h;
  !acc + List.hd (List.sort compare (List.init 200 (fun _ -> next () land 4095)))

(* The probe's time on a quiet 2-vCPU Xeon virtual machine at 2.0 GHz,
   the machine the bounds in BENCHMARK.json were set on. *)
let reference_s = 0.0020

let probe () =
  let t0 = Unix.gettimeofday () in
  let acc = ref 0 in
  for k = 1 to 20 do
    acc := !acc + round k
  done;
  let t = Unix.gettimeofday () -. t0 in
  ignore (Sys.opaque_identity !acc);
  t

(* The factor that brings a time measured between probes that took [a]
   and [b] seconds to the reference speed. *)
let scale a b = reference_s /. ((a +. b) /. 2.0)
