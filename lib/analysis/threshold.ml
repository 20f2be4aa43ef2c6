let improves ~family ~levels:(small, large) p =
  if small >= large then invalid_arg "Threshold.improves: levels";
  let fs = family small ~p and fl = family large ~p in
  (* Genuine decay, not just approach to a non-zero plateau: require a
     geometric drop between the two sizes (or underflow to ~0, deep in
     the supercritical region). *)
  fl < 0.9 *. fs || (fl <= fs && fl < 1e-12)

let bisect ~supercritical ~low ~high () =
  if not (low < high) then invalid_arg "Threshold.bisect: bounds";
  if not (supercritical low) then low
  else begin
    let rec go lo hi i =
      if i = 0 then lo
      else begin
        let mid = (lo +. hi) /. 2.0 in
        if supercritical mid then go mid hi (i - 1) else go lo mid (i - 1)
      end
    in
    go low high 30
  end

let critical_p ~family ~levels () =
  bisect ~supercritical:(improves ~family ~levels) ~low:0.01 ~high:0.5 ()
