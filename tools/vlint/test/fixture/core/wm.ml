(* R008: a pixel-plane module copying through the write barrier *)
let clear row = Array.fill row 0 (Array.length row) 0x102030

let copy src dst = Stdlib.Array.blit src 0 dst 0 (Array.length src)
