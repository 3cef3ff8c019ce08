(* LSD radix sort, one byte a pass. The sign bit is flipped so negative
   values order first; a pass whose byte is the same for every value is
   skipped, which leaves small values with one or two passes. *)
let sort a =
  let n = Array.length a in
  if n > 1 then begin
    let src = ref a and dst = ref (Array.make n 0) in
    let count = Array.make 257 0 in
    for pass = 0 to 7 do
      let shift = 8 * pass in
      let digit x = ((x lxor min_int) lsr shift) land 0xFF in
      let s = !src in
      Array.fill count 0 257 0;
      for i = 0 to n - 1 do
        let d = digit s.(i) + 1 in
        count.(d) <- count.(d) + 1
      done;
      if count.(digit s.(0) + 1) <> n then begin
        for d = 1 to 256 do
          count.(d) <- count.(d) + count.(d - 1)
        done;
        let t = !dst in
        for i = 0 to n - 1 do
          let d = digit s.(i) in
          t.(count.(d)) <- s.(i);
          count.(d) <- count.(d) + 1
        done;
        dst := s;
        src := t
      end
    done;
    if !src != a then Array.blit !src 0 a 0 n
  end
