package xmlstream

import "encoding/binary"

// The SWAR classifier: three zero-tests per 8-byte word over the code-point
// folds the kernel also uses (structidx.go), then a multiply-movemask. It
// is what classifyBlocks runs on an architecture without a kernel
// (classify_other.go), and on every architecture it is the oracle the
// kernel is tested against.

const (
	swarEach = 0x0101010101010101 // one in every byte lane
	swar7F   = 0x7f7f7f7f7f7f7f7f
)

// swarZero returns 0x80 in every byte lane of v that is zero, and 0x00
// in every other lane. Exact per-lane detection: the cheaper
// (v-lo)&^v&hi idiom false-positives on lanes following a zero lane
// (borrow propagation), which would corrupt the bitmap.
//
//gcxlint:noalloc
func swarZero(v uint64) uint64 {
	return ^(((v & swar7F) + swar7F) | v | swar7F)
}

// classifyWord maps 8 input bytes (little-endian packed) to an 8-bit
// mask, bit j set iff byte j is one of the five structural characters.
// The lane masks (0x80 per match) are compressed to positional bits with
// a multiply-movemask: lane j's high bit, shifted to bit 8j, lands at
// bit 56+j under ×0x0102040810204080 with no carry collisions.
//
//gcxlint:noalloc
func classifyWord(x uint64) uint64 {
	angle := swarZero((x | 0x0202020202020202) ^ 0x3e3e3e3e3e3e3e3e) // '<' '>'
	ampos := swarZero((x | swarEach) ^ 0x2727272727272727)           // '&' '\''
	quot := swarZero(x ^ 0x2222222222222222)                         // '"'
	m := angle | ampos | quot
	return ((m >> 7) * 0x0102040810204080) >> 56
}

// classifyBlock maps the 64 bytes of b to their index word.
//
//gcxlint:noalloc
func classifyBlock(b []byte) uint64 {
	b = b[:64:64]
	bm := classifyWord(binary.LittleEndian.Uint64(b[0:8]))
	bm |= classifyWord(binary.LittleEndian.Uint64(b[8:16])) << 8
	bm |= classifyWord(binary.LittleEndian.Uint64(b[16:24])) << 16
	bm |= classifyWord(binary.LittleEndian.Uint64(b[24:32])) << 24
	bm |= classifyWord(binary.LittleEndian.Uint64(b[32:40])) << 32
	bm |= classifyWord(binary.LittleEndian.Uint64(b[40:48])) << 40
	bm |= classifyWord(binary.LittleEndian.Uint64(b[48:56])) << 48
	bm |= classifyWord(binary.LittleEndian.Uint64(b[56:64])) << 56
	return bm
}
