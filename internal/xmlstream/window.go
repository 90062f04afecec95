package xmlstream

import (
	"bytes"
	"io"
)

// windowSize is the capacity a Window reads into, and the one Reset
// returns a grown window to.
const windowSize = 64 << 10

// Window is a read window over a byte stream with the structural index
// over its bytes: the one way the tokenizer and the corpus splitter read
// input. Buf[:N] holds the bytes read and indexed, Buf[Pos:N] those its
// owner has not consumed yet, and Off is the stream offset of Buf[0].
//
// The window moves in one of two ways. Slide drops its bytes and reads a
// fresh window: text runs and opaque interiors use it, so they keep the
// window's capacity whatever their length. Grow keeps Buf[Pos:N],
// compacting it to the front, and reads more behind it, doubling the
// capacity when the window is full: a construct that must be contiguous
// — a tag up to its '>', an entity up to its ';', a markup opener — uses
// it. Grow indexes only the bytes it read (and the kept ones if it moved
// them), so a construct read a byte at a time costs linear work.
type Window struct {
	Buf []byte // len(Buf) is the capacity reads fill
	Pos int
	N   int
	Off int64
	Err error // sticky read error, io.EOF included
	Idx StructIndex

	r  io.Reader
	cr bool // a '\r' was read since the window last slid (tokenizer.go: line ends)
}

// Reset points the window at r with nothing read, giving a grown window
// back to windowSize so one long construct does not pin its size in a
// pooled owner.
func (w *Window) Reset(r io.Reader) {
	if len(w.Buf) > windowSize {
		w.Buf = make([]byte, windowSize)
		w.Idx = StructIndex{}
	}
	w.Idx.Reset()
	w.Pos, w.N, w.Off, w.Err, w.r, w.cr = 0, 0, 0, nil, r, false
}

// read appends at least one byte from the reader behind Buf[:N],
// retrying the empty reads io.Reader permits, and reports false once the
// input ends or fails (Err says which).
//
//gcxlint:noalloc
func (w *Window) read() bool {
	for w.Err == nil {
		n, err := w.r.Read(w.Buf[w.N:])
		w.cr = w.cr || bytes.IndexByte(w.Buf[w.N:w.N+n], '\r') >= 0
		w.N += n
		w.Err = err
		if n > 0 {
			return true
		}
	}
	return false
}

// Slide drops the window's bytes — the owner is done with all of them —
// and reads a fresh window. It reports false, moving nothing, once the
// input has ended.
//
//gcxlint:noalloc
func (w *Window) Slide() bool {
	if w.Err != nil {
		return false
	}
	if len(w.Buf) == 0 {
		w.Buf = make([]byte, windowSize) //gcxlint:allocok one window per owner, made at its first read
	}
	w.Off += int64(w.N)
	w.Pos, w.N, w.cr = 0, 0, false
	ok := w.read()
	w.Idx.Build(w.Buf[:w.N])
	return ok
}

// Grow keeps Buf[Pos:N], moving it to the front of the window, and reads
// more behind it, doubling the window when it is full. It reports false
// once the input has ended.
//
//gcxlint:noalloc
func (w *Window) Grow() bool {
	if w.Err != nil {
		return false
	}
	from := w.N
	if w.Pos > 0 {
		from = 0 // the kept bytes move: index them again
		w.N = copy(w.Buf, w.Buf[w.Pos:w.N])
		w.Off += int64(w.Pos)
		w.Pos = 0
	}
	if w.N == len(w.Buf) {
		grown := make([]byte, max(2*len(w.Buf), windowSize)) //gcxlint:allocok a construct longer than the window
		copy(grown, w.Buf[:w.N])
		w.Buf = grown
	}
	ok := w.read()
	w.Idx.Extend(w.Buf[:w.N], from)
	return ok
}

// Ensure grows the window until k bytes are unread, and reports whether
// they are (false: the input ends first).
//
//gcxlint:noalloc
func (w *Window) Ensure(k int) bool {
	for w.N-w.Pos < k {
		if !w.Grow() {
			return false
		}
	}
	return true
}

// A Keeper receives the bytes Skip passes over before the window moves
// past them.
type Keeper interface{ Keep([]byte) }

// hand gives Buf[Pos:to] to keep (nil: drops it) and consumes it.
//
//gcxlint:noalloc
func (w *Window) hand(keep Keeper, to int) {
	if keep != nil {
		keep.Keep(w.Buf[w.Pos:to])
	}
	w.Pos = to
}

// The opaque regions Skip scans, named by the byte that closes them
// before their '>' (a declaration has none: its '>' closes at depth 0).
const (
	Comment = '-' // "<!--" … "-->"
	PI      = '?' // "<?" … "?>"
	CDATA   = ']' // "<![CDATA[" … "]]>"
	Decl    = '!' // "<!" … '>', with quoted literals, comments and PIs inside
)

// Skip scans the opaque region of the given kind whose interior starts at
// Pos, just past its opener, and leaves Pos just past its closing '>'.
// Every region byte, terminator included, goes to keep (nil: dropped) as
// the scan passes it. It reports false, with Pos at N, if the input ends
// first.
//
// The scan hops the structural index. Every terminator ends in '>', a
// structural byte, so a comment, PI or CDATA section looks at its '>'
// candidates and the at most two bytes before each, carrying the last two
// across a slide. A declaration also hops '<' and quotes: a quoted
// literal is opaque through its closing quote, and a '<' nests a level
// unless it opens a comment or PI, which are scanned as above, inside it.
// Telling those apart needs the three bytes after the '<', the one place
// the window grows instead of sliding.
//
//gcxlint:noalloc
func (w *Window) Skip(kind byte, keep Keeper) bool {
	var (
		in    = kind  // what the next candidate is in: kind, a quote, or a comment or PI inside a declaration
		depth = 1     // declaration nesting
		start = w.Pos // where `in` started in this window (0: in an earlier one)
		prev  [2]byte // the last two bytes of `in` before Buf[0], if any
	)
	for p := w.Pos; ; {
		i := w.Idx.Next(p)
		if i < 0 {
			if tail := w.Buf[start:w.N]; len(tail) >= 2 {
				prev = [2]byte{tail[len(tail)-2], tail[len(tail)-1]}
			} else if len(tail) == 1 {
				prev = [2]byte{prev[1], tail[0]}
			}
			w.hand(keep, w.N)
			if !w.Slide() {
				return false
			}
			start, p = 0, 0
			continue
		}
		p = i + 1
		switch c := w.Buf[i]; {
		case in == '"' || in == '\'':
			if c == in {
				in = Decl
			}
		case in == Decl:
			switch c {
			case '"', '\'':
				in = c
			case '>':
				if depth--; depth == 0 {
					w.hand(keep, p)
					return true
				}
			case '<':
				if i+4 > w.N && w.Err == nil {
					w.hand(keep, i)
					w.Ensure(4)
					i, p, start = w.Pos, w.Pos+1, w.Pos
				}
				switch rest := w.Buf[i+1 : w.N]; {
				case len(rest) >= 1 && rest[0] == '?':
					in, start, prev, p = PI, i+2, [2]byte{}, i+2
				case len(rest) >= 3 && string(rest[:3]) == "!--":
					in, start, prev, p = Comment, i+4, [2]byte{}, i+4
				default:
					depth++
				}
			}
		case c == '>':
			// A comment, PI or CDATA section: its '>' closes it after
			// "--", "?" or "]]" inside it.
			b1, b2 := prev[1], prev[0]
			if i-1 >= start {
				b1, b2 = w.Buf[i-1], prev[1]
			}
			if i-2 >= start {
				b2 = w.Buf[i-2]
			}
			if b1 != in || in != PI && b2 != in {
				continue
			}
			if in == kind {
				w.hand(keep, p)
				return true
			}
			in = Decl // a comment or PI inside a declaration
		}
	}
}
