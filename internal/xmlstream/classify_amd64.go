package xmlstream

// classifyBlocks writes the index words of the 64-byte blocks of src to
// dst: bit i of dst[b] is set iff src[64b+i] is structural. It classifies
// min(len(dst), len(src)/64) blocks and reads no byte past them. On amd64
// it is the SSE2 kernel in classify_amd64.s (SSE2 is part of the amd64
// baseline, so there is nothing to detect); elsewhere it is the SWAR loop
// in classify_other.go.
//
//go:noescape
//gcxlint:noalloc
func classifyBlocks(dst []uint64, src []byte)
