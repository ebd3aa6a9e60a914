(* not a pixel-plane module (only user/gfx.ml is): no R008 here *)
let copy src dst = Array.blit src 0 dst 0 (Array.length src)
