package xmlstream

import (
	"fmt"
	"io"

	"gcx/internal/obs"
)

// Writer serializes a token stream back to XML text. It performs minimal
// escaping of character data (&, <, >) and checks tag balance, so any
// well-formed token sequence produces well-formed XML.
//
// A Writer batches its output itself, in its slice of a backing array
// that NewWriters shares among a pass's writers, as it shares one for
// their element stacks. The batching follows bufio's rules (fill, write
// a full buffer, hand a string larger than an empty buffer straight to an
// io.StringWriter destination), so a destination sees the writes a
// bufio.Writer of the same size would make.
//
// The zero value is not usable; construct with NewWriter or NewWriters.
type Writer struct {
	// buf is the batched output: its length is what is buffered, its
	// capacity the batching size.
	buf   []byte
	dst   io.Writer
	stack []string
	n     int64
	// first is the obs.Now timestamp of the first output byte (0 until
	// one is produced) — the time-to-first-result stamp. It marks when
	// the byte enters the writer, not when the batch is flushed: flushing
	// is I/O batching, producing the byte is what evaluation latency
	// means.
	first int64
	err   error
	// werr is the destination's error. Like bufio's, it is sticky: no
	// batch is written after one failed, and what that one did not write
	// stays counted as buffered.
	werr error
}

// ResultFlusher is implemented by destinations that can push the first
// result byte further down the stack (e.g. an HTTP response writer whose
// transport-level flush commits the headers and ships the body buffer).
// FlushFirst calls it after draining the batching buffer, so the engine's
// earliest-answering guarantee extends past its own batching to the
// destination's.
type ResultFlusher interface {
	FlushResult()
}

// DefaultWriterBuffer is the output batching of a Writer that has the
// run to itself.
const DefaultWriterBuffer = 32 << 10

// writerStack is the element depth each of NewWriters' writers holds
// before its stack leaves the shared backing array for one of its own.
const writerStack = 8

// NewWriter returns a Writer emitting to w.
func NewWriter(w io.Writer) *Writer {
	ws := NewWriters(1, DefaultWriterBuffer)
	ws[0].dst = w
	return &ws[0]
}

// NewWriters returns n Writers, each batching size bytes and emitting to
// io.Discard until Reset: a pass with many members divides a budget among
// their writers instead of giving each the solo size, and builds them in
// one allocation per kind — the writers, their buffers, their stacks.
func NewWriters(n, size int) []Writer {
	if size <= 0 {
		size = DefaultWriterBuffer
	}
	ws := make([]Writer, n)
	bufs := make([]byte, n*size)
	stacks := make([]string, n*writerStack)
	for i := range ws {
		ws[i] = Writer{
			buf:   bufs[i*size : i*size : (i+1)*size],
			dst:   io.Discard,
			stack: stacks[i*writerStack : i*writerStack : (i+1)*writerStack],
		}
	}
	return ws
}

// Reset discards all state and redirects output to out, retaining the
// batching buffer. Unflushed bytes from an aborted previous run are
// dropped.
func (w *Writer) Reset(out io.Writer) {
	w.buf = w.buf[:0]
	w.dst = out
	w.stack = w.stack[:0]
	w.n = 0
	w.first = 0
	w.err = nil
	w.werr = nil
}

// flush writes the batch to the destination.
func (w *Writer) flush() error {
	if w.werr != nil || len(w.buf) == 0 {
		return w.werr
	}
	n, err := w.dst.Write(w.buf)
	if n < len(w.buf) && err == nil {
		err = io.ErrShortWrite
	}
	if err != nil {
		w.buf = w.buf[:copy(w.buf, w.buf[n:])]
		w.werr = err
		return err
	}
	w.buf = w.buf[:0]
	return nil
}

// FlushFirst pushes buffered output toward the destination without the
// end-of-run balance check: the evaluator calls it once, right after the
// first result byte is certain, so the byte leaves the batching buffer
// (and, via ResultFlusher, the transport's buffers) instead of riding
// along until the final Flush. Write errors surface through Err as usual.
func (w *Writer) FlushFirst() {
	if w.first == 0 || w.err != nil {
		return
	}
	if err := w.flush(); err != nil {
		w.err = err
		return
	}
	if rf, ok := w.dst.(ResultFlusher); ok {
		rf.FlushResult()
	}
}

// BytesWritten returns the number of bytes emitted so far (pre-buffering).
func (w *Writer) BytesWritten() int64 { return w.n }

// Delivered returns the number of result bytes that have actually
// reached the destination writer: emitted minus still sitting in the
// batching buffer. A failed run that never flushed has Delivered 0 even
// though bytes entered the writer — nothing was answered.
func (w *Writer) Delivered() int64 { return w.n - int64(len(w.buf)) }

// FirstByteAt returns the obs.Now timestamp at which the first output
// byte was produced, or 0 if nothing has been written since the last
// Reset.
func (w *Writer) FirstByteAt() int64 { return w.first }

// stampFirst records the first-result-byte timestamp. Runs on the output
// hot path for every emitted string/byte, so it must not allocate.
//
//gcxlint:noalloc
func (w *Writer) stampFirst() {
	if w.first == 0 {
		w.first = obs.Now()
	}
}

// Err returns the first error encountered, if any.
func (w *Writer) Err() error { return w.err }

func (w *Writer) writeString(s string) {
	if w.err != nil || len(s) == 0 {
		return
	}
	w.stampFirst()
	for len(s) > cap(w.buf)-len(w.buf) {
		if sw, ok := w.dst.(io.StringWriter); ok && len(w.buf) == 0 {
			// Larger than the whole batch: no point copying it.
			n, err := sw.WriteString(s)
			w.n += int64(n)
			if err != nil {
				w.werr, w.err = err, err
			}
			return
		}
		n := copy(w.buf[len(w.buf):cap(w.buf)], s)
		w.buf = w.buf[:len(w.buf)+n]
		w.n += int64(n)
		s = s[n:]
		if err := w.flush(); err != nil {
			w.err = err
			return
		}
	}
	w.buf = append(w.buf, s...)
	w.n += int64(len(s))
}

func (w *Writer) writeByte(c byte) {
	if w.err != nil {
		return
	}
	w.stampFirst()
	if len(w.buf) == cap(w.buf) {
		if err := w.flush(); err != nil {
			w.err = err
			return
		}
	}
	w.buf = append(w.buf, c)
	w.n++
}

// StartElement emits an opening tag.
func (w *Writer) StartElement(name string) {
	w.writeByte('<')
	w.writeString(name)
	w.writeByte('>')
	w.stack = append(w.stack, name)
}

// EndElement emits a closing tag. The name must match the innermost open
// element; a mismatch is recorded as an error.
func (w *Writer) EndElement(name string) {
	if w.err == nil {
		if len(w.stack) == 0 {
			w.err = fmt.Errorf("xmlstream: closing </%s> with no open element", name)
			return
		}
		if top := w.stack[len(w.stack)-1]; top != name {
			w.err = fmt.Errorf("xmlstream: closing </%s>, expected </%s>", name, top)
			return
		}
	}
	w.stack = w.stack[:len(w.stack)-1]
	w.writeString("</")
	w.writeString(name)
	w.writeByte('>')
}

// Text emits escaped character data.
func (w *Writer) Text(data string) {
	start := 0
	for i := 0; i < len(data); i++ {
		var esc string
		switch data[i] {
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '\r':
			esc = "&#xD;" // a raw '\r' would read back as '\n'
		default:
			continue
		}
		w.writeString(data[start:i])
		w.writeString(esc)
		start = i + 1
	}
	w.writeString(data[start:])
}

// Flush flushes buffered output and returns the first error seen, including
// unbalanced open elements.
func (w *Writer) Flush() error {
	if w.err == nil && len(w.stack) > 0 {
		w.err = fmt.Errorf("xmlstream: %d unclosed element(s), innermost <%s>", len(w.stack), w.stack[len(w.stack)-1])
	}
	if err := w.flush(); err != nil && w.err == nil {
		w.err = err
	}
	return w.err
}
