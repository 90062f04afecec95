//go:build !amd64

package xmlstream

// classifyBlocks writes the index words of the 64-byte blocks of src to
// dst, min(len(dst), len(src)/64) of them (classify_amd64.go). Without a
// kernel it runs the SWAR classifier a block at a time.
//
//gcxlint:noalloc
func classifyBlocks(dst []uint64, src []byte) {
	for b := range min(len(dst), len(src)>>6) {
		dst[b] = classifyBlock(src[b<<6:])
	}
}
