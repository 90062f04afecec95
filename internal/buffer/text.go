package buffer

import (
	"sync/atomic"
	"unsafe"
)

const (
	// textChunkBytes is the size of one text chunk. A chunk is pinned for
	// as long as any text in it is linked, so the size trades pinned
	// slack against chunk count; DESIGN.md ("The buffer owns its bytes")
	// has the held-versus-live table it was picked from.
	textChunkBytes = 32 << 10
	// oversizeDivisor: a text longer than a chunk/oversizeDivisor gets an
	// allocation of its own, so one long text neither wastes the tail of
	// the chunk being filled nor pins a chunk of short ones.
	oversizeDivisor = 4
	// maxRetainedTextBytes bounds the chunk capacity an idle (pooled)
	// buffer keeps across runs; a run that needs more allocates the
	// excess again.
	maxRetainedTextBytes = 256 << 10
)

// textChunk is one fixed-size block of kept character data. Texts are
// carved front to back; the block is reusable the moment none of them is
// linked any more.
type textChunk struct {
	buf  []byte
	used int   // buf[:used] has been handed out
	live int32 // texts carved from buf that are still linked
}

// textSlab owns the character data of the buffer's text nodes: the only
// way bytes enter Node.Text is keep, and unlink gives them back through
// release, so after a signOff the bytes are reusable by the buffer rather
// than garbage for the collector. It takes no lock: a buffer is touched
// by exactly one goroutine at a time (the pass's baton invariant).
//
// Lifetime rule: a string returned by keep is valid until release of its
// node or reset, whichever comes first. Whatever outlives that copies.
type textSlab struct {
	chunks []textChunk
	free   []int32 // indices of chunks with no live text, other than cur
	cur    int32   // index of the chunk being filled; -1 before the first

	chunkBytes int  // textChunkBytes outside tests
	poison     bool // overwrite reclaimed bytes with 0xFF (tests)

	inUse     int32 // chunks with live > 0
	bigBytes  int64 // bytes of live oversized texts
	liveBytes int64 // bytes of live texts, oversized ones included
	peakHeld  int64 // high watermark of held()
}

// debugChunkBytes, when non-zero, replaces textChunkBytes in buffers
// created from then on and switches their poisoning on.
var debugChunkBytes atomic.Int32

// SetTextDebug is a hook for tests, of this package and of the ones above
// it (which an export_test.go here could not reach): buffers created
// until restore is called carve text from chunks of chunkBytes and
// overwrite every text with 0xFF the moment it is released, and every
// chunk on Reset, so a string that outlives the lifetime rule reads as a
// byte mismatch instead of passing by luck.
func SetTextDebug(chunkBytes int) (restore func()) {
	old := debugChunkBytes.Swap(int32(chunkBytes))
	return func() { debugChunkBytes.Store(old) }
}

func newTextSlab() textSlab {
	s := textSlab{cur: -1, chunkBytes: textChunkBytes}
	if n := debugChunkBytes.Load(); n > 0 {
		s.chunkBytes, s.poison = int(n), true
	}
	return s
}

// held is the memory pinned by live text: every chunk with a linked text
// in it, whole, plus the oversized texts.
//
//gcxlint:noalloc
func (s *textSlab) held() int64 {
	return int64(s.inUse)*int64(s.chunkBytes) + s.bigBytes
}

// keep copies text into the slab and returns the copy with the chunk
// reference its node must hand back to release: 0 for the empty text,
// -1 for an oversized one, else the chunk's index plus one.
//
//gcxlint:borrowcopy
//gcxlint:noalloc
func (s *textSlab) keep(text string) (string, int32) {
	n := len(text)
	if n == 0 {
		return "", 0
	}
	if n > s.chunkBytes/oversizeDivisor {
		b := make([]byte, n) //gcxlint:allocok an oversized text is its own allocation, dropped when its node is purged
		copy(b, text)
		s.bigBytes += int64(n)
		s.liveBytes += int64(n)
		s.peakHeld = max(s.peakHeld, s.held())
		return unsafe.String(&b[0], n), -1
	}
	if s.cur < 0 || s.chunks[s.cur].used+n > s.chunkBytes {
		// The chunk being filled is abandoned with live text in it (an
		// empty one always has room) and returns through release.
		s.cur = s.nextChunk()
	}
	c := &s.chunks[s.cur]
	if c.live == 0 {
		s.inUse++
		s.peakHeld = max(s.peakHeld, s.held())
	}
	off := c.used
	copy(c.buf[off:], text)
	c.used += n
	c.live++
	s.liveBytes += int64(n)
	return unsafe.String(&c.buf[off], n), s.cur + 1
}

// nextChunk returns the index of an empty chunk: the most recently freed
// one, or a new one.
//
//gcxlint:noalloc
func (s *textSlab) nextChunk() int32 {
	if n := len(s.free); n > 0 {
		i := s.free[n-1]
		s.free = s.free[:n-1]
		return i
	}
	s.chunks = append(s.chunks, textChunk{buf: make([]byte, s.chunkBytes)}) //gcxlint:allocok chunk growth tracks the peak of live text; up to maxRetainedTextBytes stay across runs
	return int32(len(s.chunks) - 1)
}

// release gives back a text keep returned. The chunk it empties is
// reusable at once: the one being filled is rewound in place, any other
// goes to the free list.
//
//gcxlint:noalloc
func (s *textSlab) release(text string, chunk int32) {
	if chunk == 0 {
		return
	}
	if s.poison {
		// Nothing carves these bytes again before their chunk is empty.
		poisonBytes(unsafe.Slice(unsafe.StringData(text), len(text)))
	}
	s.liveBytes -= int64(len(text))
	if chunk < 0 {
		s.bigBytes -= int64(len(text))
		return
	}
	c := &s.chunks[chunk-1]
	c.live--
	if c.live > 0 {
		return
	}
	c.used = 0
	s.inUse--
	if chunk-1 != s.cur {
		s.free = append(s.free, chunk-1)
	}
}

// reset makes every chunk free again and drops the ones beyond the
// retention cap, so an idle buffer holds no more than
// maxRetainedTextBytes of chunk capacity (and, its nodes' Text cleared by
// the arena, no oversized text at all).
//
//gcxlint:keep chunks up to maxRetainedTextBytes of them stay: sparing the next run their allocation is the slab's purpose
//gcxlint:keep chunkBytes fixed when the buffer is created
//gcxlint:keep poison fixed when the buffer is created
func (s *textSlab) reset() {
	if keep := maxRetainedTextBytes / s.chunkBytes; len(s.chunks) > keep {
		clear(s.chunks[keep:])
		s.chunks = s.chunks[:keep]
	}
	s.free = s.free[:0]
	for i := len(s.chunks) - 1; i >= 0; i-- {
		c := &s.chunks[i]
		if s.poison {
			poisonBytes(c.buf)
		}
		c.used, c.live = 0, 0
		s.free = append(s.free, int32(i))
	}
	s.cur = -1
	s.inUse, s.bigBytes, s.liveBytes, s.peakHeld = 0, 0, 0, 0
}

//gcxlint:noalloc
func poisonBytes(b []byte) {
	for i := range b {
		b[i] = 0xFF
	}
}
