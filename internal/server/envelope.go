package server

import (
	"crypto/rand"
	"encoding/hex"
	"slices"
	"strings"
)

// envelope frames a multipart/mixed response body with the bytes
// mime/multipart.Writer writes for the same boundary and part headers —
// each part's delimiter, then its header fields in key order, then a
// blank line; a closing delimiter at the end — but builds every part
// header in one reused buffer instead of a header map, a sorted key
// slice and a formatted buffer per part. Unlike multipart.Writer it does
// not write a header value raw: CR and LF become spaces, as net/http
// makes them in response headers, so a value (a tar member's name, an
// error message) cannot end its line and forge a header of its own.
type envelope struct {
	// contentType is the response's Content-Type, "multipart/mixed;
	// boundary=" and the boundary; "" until open.
	contentType string
	parts       int
	buf         []byte // the header being written, over arr until it outgrows it
	arr         [512]byte
}

const multipartMixed = "multipart/mixed; boundary="

// opened reports whether open has drawn the boundary.
func (e *envelope) opened() bool { return e.contentType != "" }

// open draws the boundary as multipart.NewWriter does: 30 random bytes,
// hex-encoded.
func (e *envelope) open() {
	var ct [len(multipartMixed) + 60]byte
	copy(ct[:], multipartMixed)
	rnd := e.arr[:30] // a local array would escape to the heap through rand.Read
	rand.Read(rnd)    // never fails: crypto/rand crashes the program instead
	hex.Encode(ct[len(multipartMixed):], rnd)
	e.contentType = string(ct[:])
}

func (e *envelope) boundary() string { return e.contentType[len(multipartMixed):] }

// header returns the delimiter and header of the next part: its
// Content-Type, the name/value pairs kv and, when err is set, Gcx-Error.
// Keys must be in canonical form (textproto.CanonicalMIMEHeaderKey) and
// distinct. The bytes are valid until the next call.
func (e *envelope) header(contentType string, err error, kv []string) []byte {
	var arr [8][2]string
	fields := append(arr[:0], [2]string{"Content-Type", contentType})
	for i := 0; i+1 < len(kv); i += 2 {
		fields = append(fields, [2]string{kv[i], kv[i+1]})
	}
	if err != nil {
		fields = append(fields, [2]string{"Gcx-Error", err.Error()})
	}
	slices.SortFunc(fields, func(a, b [2]string) int { return strings.Compare(a[0], b[0]) })

	b := e.reuse()
	if e.parts > 0 {
		b = append(b, "\r\n"...)
	}
	e.parts++
	b = append(append(append(b, "--"...), e.boundary()...), "\r\n"...)
	for _, f := range fields {
		b = append(append(b, f[0]...), ": "...)
		v := len(b)
		b = append(b, f[1]...)
		for i := v; i < len(b); i++ {
			if b[i] == '\r' || b[i] == '\n' {
				b[i] = ' '
			}
		}
		b = append(b, "\r\n"...)
	}
	e.buf = append(b, "\r\n"...)
	return e.buf
}

// reuse is the header buffer, emptied.
func (e *envelope) reuse() []byte {
	if e.buf == nil {
		return e.arr[:0]
	}
	return e.buf[:0]
}

// close returns the closing delimiter.
func (e *envelope) close() []byte {
	e.buf = append(append(append(e.reuse(), "\r\n--"...), e.boundary()...), "--\r\n"...)
	return e.buf
}
