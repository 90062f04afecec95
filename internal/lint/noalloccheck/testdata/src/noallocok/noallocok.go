// Package noallocok exercises the constructs a //gcxlint:noalloc
// function may legitimately contain; noalloccheck must stay silent here.
package noallocok

import "unsafe"

type scanner struct {
	buf    []byte
	names  map[string]string
	outBuf []int
}

// helper is itself part of the annotated hot path.
//
//gcxlint:noalloc
func (s *scanner) helper(b byte) bool { return b == '<' }

// fail is an error-path constructor: declaration-level allocok lets
// noalloc callers reach it without per-site suppressions.
//
//gcxlint:allocok error construction terminates the scan
func (s *scanner) fail(msg string) error {
	return &scanError{msg: msg}
}

type scanError struct{ msg string }

func (e *scanError) Error() string { return e.msg }

// scan stays allocation-free: appends target pooled field scratch,
// conversions sit in compare-only positions, helpers are annotated.
//
//gcxlint:noalloc
func (s *scanner) scan(window []byte, dst []int) ([]int, error) {
	// Appending to a field or a reslice of it is pooled scratch.
	s.buf = append(s.buf[:0], window...)
	// Appending to a parameter leaves ownership with the caller.
	dst = append(dst, len(window))
	// Map index keyed by a conversion does not materialize the string.
	if v, ok := s.names[string(window)]; ok {
		_ = v
	}
	// Comparison operands do not materialize either.
	if string(window) == "gcx" {
		return dst, nil
	}
	// Nor do switch tags.
	switch string(window) {
	case "a", "b":
		return dst, nil
	}
	if !s.helper(window[0]) {
		return dst, s.fail("unexpected byte")
	}
	// defer is open-coded; len/cap/copy are free.
	defer func() {}() //gcxlint:allocok teardown hook runs once per document, off the token loop
	n := copy(s.buf, window)
	_ = n
	return dst, nil
}

// interning performs the deliberate once-per-name copy, suppressed with
// a reason on the allocation line.
//
//gcxlint:noalloc
func (s *scanner) interning(name []byte) string {
	if owned, ok := s.names[string(name)]; ok {
		return owned
	}
	owned := string(name) //gcxlint:allocok interning copies each distinct name exactly once
	s.names[owned] = owned
	return owned
}

// pointerArgs passes pointer-shaped values to interface parameters,
// which the interface word holds without boxing.
//
//gcxlint:noalloc
func pointerArgs(sink interface{ accept(any) }, s *scanner) {
	sink.accept(s)
	sink.accept(nil)
}

// slab is the buffer's text-slab shape: copying into owned bytes and
// handing them back as an unsafe.String view allocates nothing; chunk
// growth is the one deliberate, annotated allocation.
type slab struct {
	chunk []byte
	used  int
}

//gcxlint:noalloc
func (s *slab) keep(text string) string {
	if s.used+len(text) > len(s.chunk) {
		s.chunk = make([]byte, 1024) //gcxlint:allocok chunk growth tracks the peak of live text
		s.used = 0
	}
	off := s.used
	s.used += copy(s.chunk[off:], text)
	return unsafe.String(&s.chunk[off], len(text))
}

// release overwrites the bytes through the string's own storage.
//
//gcxlint:noalloc
func (s *slab) release(text string) {
	b := unsafe.Slice(unsafe.StringData(text), len(text))
	for i := range b {
		b[i] = 0xFF
	}
}
