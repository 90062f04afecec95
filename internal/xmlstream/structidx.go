package xmlstream

import "math/bits"

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
// keeps classification at three byte compares instead of five,
// exploiting shared structure in the code points:
//
//	(x | 0x02) == 0x3E  ⇔  x ∈ {0x3C, 0x3E}   ('<' or '>')
//	(x | 0x01) == 0x27  ⇔  x ∈ {0x26, 0x27}   ('&' or '\'')
//	 x         == 0x22  ⇔  x == 0x22          ('"')
//
// classifyBlocks applies them to whole 64-byte blocks. On amd64 it is an
// SSE2 kernel (classify_amd64.s): per 16 bytes, three PCMPEQBs, two PORs
// and one PMOVMSKB. Elsewhere it is the SWAR classifier
// (classify_swar.go, three zero-tests per 8-byte word and a
// multiply-movemask), which is also the kernel's test oracle. Every
// block goes through classifyBlocks; there is one path per architecture.
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

	classified int // new bytes indexed since Reset (tests)
}

// Build classifies buf and replaces the index contents. It must be
// re-run whenever the window slides or its bytes move: positions are
// absolute offsets into buf.
//
//gcxlint:noalloc
func (ix *StructIndex) Build(buf []byte) { ix.Extend(buf, 0) }

// Extend classifies buf[from:], keeping the classification of buf[:from]:
// the bytes before from are the ones the index was built over, and the
// window grew behind them. Only the new bytes and the block they start
// in are classified, so a window grown a byte at a time is indexed in
// linear work.
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
	// Classification starts at the block holding from: its bytes before
	// from are the ones indexed already, so they get the same bits again.
	i := from &^ 63
	if k := (n - i) >> 6; k > 0 {
		classifyBlocks(ix.words[i>>6:i>>6+k], buf[i:i+k<<6])
		i += k << 6
	}
	if i < n {
		// Tail block: classify a zero-padded copy so no bit lands at or
		// past n.
		var blk [64]byte
		copy(blk[:], buf[i:n])
		classifyBlocks(ix.words[i>>6:], blk[:])
	}
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
