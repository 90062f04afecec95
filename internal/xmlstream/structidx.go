package xmlstream

import (
	"encoding/binary"
	"math/bits"
)

// Structural index: the simdjson move, ported to streaming XML. Instead
// of byte-stepping (branch per byte) or sentinel IndexByte probes (call
// per run — a loss when markup is dense and runs are short), a single
// branchless classification pass runs over the bytes every read adds to
// the lookahead window (window.go) and records, one bit per byte, where
// the five structural characters sit:
//
//	'<' 0x3C   '>' 0x3E   '&' 0x26   '"' 0x22   '\'' 0x27
//
// Tag, attribute, and text scanning then HOP between candidate
// positions with TrailingZeros64 instead of inspecting bytes. Quotes
// must be classified even though they only matter inside tags: finding
// a tag's closing '>' from the index requires masking '>' and '<' that
// sit inside quoted attribute values ("a > b" is value content, not a
// tag end).
//
// The bitmap is COMBINED: one bit marks "some structural byte here",
// and the consumer dispatches on the actual buffer byte. Candidates
// that turn out to be irrelevant in context (an apostrophe in character
// data, a '>' in a text run) cost one dispatch and are skipped. That
// keeps classification at three SWAR zero-tests per word instead of
// five, exploiting shared structure in the code points:
//
//	(x | 0x02) ^ 0x3E == 0  ⇔  x ∈ {0x3C, 0x3E}   ('<' or '>')
//	(x | 0x01) ^ 0x27 == 0  ⇔  x ∈ {0x26, 0x27}   ('&' or '\'')
//	 x         ^ 0x22 == 0  ⇔  x == 0x22          ('"')
//
// Block format: one uint64 per 64-byte block, bit i of words[b] set iff
// buf[b*64+i] is structural. The tail block is classified from a
// zero-padded copy (0x00 is never structural), so no bit is ever set at
// or beyond len(buf) — queries need no end-of-buffer re-check.

// StructIndex is a per-window structural-byte index. Build classifies a
// buffer and Extend the bytes appended to it; Next answers "first
// structural byte at or after p" in O(1) amortized. The words slice is
// reused across Builds, so a warm index performs zero allocations per
// pass.
type StructIndex struct {
	words []uint64 // one bit per byte, 64 bytes per word
	n     int      // classified length (len of the last Build's buffer)

	classified int // bytes classified since Reset (tests)
}

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

// Build classifies buf and replaces the index contents. It must be
// re-run whenever the window slides or its bytes move: positions are
// absolute offsets into buf.
//
//gcxlint:noalloc
func (ix *StructIndex) Build(buf []byte) { ix.Extend(buf, 0) }

// Extend classifies buf[from:], keeping the classification of buf[:from]:
// the bytes before from are the ones the index was built over, and the
// window grew behind them. Only the new bytes are classified, so a window
// grown a byte at a time is indexed in linear work.
//
//gcxlint:noalloc
func (ix *StructIndex) Extend(buf []byte, from int) {
	n := len(buf)
	nw := (n + 63) >> 6
	if cap(ix.words) < nw {
		words := make([]uint64, nw, max(nw, 2*cap(ix.words))) //gcxlint:allocok sized to the window; reused across Builds
		copy(words, ix.words)
		ix.words = words
	}
	ix.words = ix.words[:nw]
	ix.n = n
	ix.classified += n - from
	i := from
	if r := from & 63; r != 0 {
		// The block holding from is classified up to it: classify its
		// new bytes from a zero-padded copy (0x00 matches no structural
		// class) and keep its old bits.
		var blk [64]byte
		i -= r
		copy(blk[r:], buf[from:min(n, i+64)])
		ix.words[i>>6] = ix.words[i>>6]&(1<<r-1) | classifyBlock(blk[:])
		i += 64
	}
	for ; i+64 <= n; i += 64 {
		ix.words[i>>6] = classifyBlock(buf[i : i+64])
	}
	if i < n {
		// Tail block: classify a zero-padded copy so no bit lands at or
		// past n.
		var blk [64]byte
		copy(blk[:], buf[i:n])
		ix.words[i>>6] = classifyBlock(blk[:])
	}
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

// Next returns the position of the first structural byte at or after
// from, or -1 if none remains in the classified range. The caller
// dispatches on the buffer byte at the returned position; a candidate
// that is not relevant in context is skipped by querying from+1.
//
//gcxlint:noalloc
func (ix *StructIndex) Next(from int) int {
	if from < 0 {
		from = 0
	}
	if from >= ix.n {
		return -1
	}
	w := from >> 6
	b := ix.words[w] &^ (1<<(uint(from)&63) - 1)
	for b == 0 {
		w++
		if w >= len(ix.words) {
			return -1
		}
		b = ix.words[w]
	}
	return w<<6 + bits.TrailingZeros64(b)
}

// Reset drops the classified range (keeping the words capacity) so a
// pooled owner starts its next document with an empty index.
//
//gcxlint:noalloc
func (ix *StructIndex) Reset() {
	ix.n = 0
	ix.words = ix.words[:0]
	ix.classified = 0
}
