package xmlstream

import "bytes"

// The size of SkipContent's name arena: the name bytes and the elements
// it holds open at once. Next reads a tag that would overflow it.
const (
	arenaBytes = 1024
	arenaDepth = 64
)

// nameArena holds the names of the elements SkipContent has opened and
// not closed, back to back, innermost last; ends[d] is where the d-th
// name ends in bytes. It never grows.
type nameArena struct {
	bytes [arenaBytes]byte
	ends  [arenaDepth]int32
	depth int
}

// name returns the bytes of the d-th open name.
//
//gcxlint:noalloc
func (a *nameArena) name(d int) []byte {
	from := int32(0)
	if d > 0 {
		from = a.ends[d-1]
	}
	return a.bytes[from:a.ends[d]]
}

// push opens name, and reports false, changing nothing, if the arena
// cannot hold it.
//
//gcxlint:noalloc
func (a *nameArena) push(name []byte) bool {
	from := 0
	if a.depth > 0 {
		from = int(a.ends[a.depth-1])
	}
	if a.depth == arenaDepth || from+len(name) > arenaBytes {
		return false
	}
	a.ends[a.depth] = int32(from + copy(a.bytes[from:], name))
	a.depth++
	return true
}

// SkipContent reads on through the content of the innermost open
// element and returns the number of tokens Next would have produced
// there, at most budget (≥ 1), and by how much that changed the number of
// open elements. It writes no Token, queues no attribute tokens, copies
// no text and interns no name. It counts by Next's rules, and checks
// what Next checks with Next's own functions, or leaves it to Next.
//
// It reads no construct of which it is unsure: the end tag of an element
// it did not open, a tag that is malformed, holds an entity in an
// attribute value or does not fit the arena, the end of the input. It
// returns there, consuming nothing of it, and Next reads it, with its
// tokens and its errors. The elements it opens stay on the arena across
// calls; Next's next call interns them onto the element stack. A start
// tag whose tokens pass the budget is read, and the next call counts the
// rest first, so a short count means that nothing is owed. While queued
// tokens remain, SkipContent reads nothing.
//
//gcxlint:noalloc
func (t *Tokenizer) SkipContent(budget int64) (n int64, open int, err error) {
	if t.pendHead < len(t.pending) || len(t.stack) == 0 {
		return 0, 0, nil
	}
	a := &t.arena
	depth := a.depth
	n = min(t.owed, budget)
	t.owed -= n
scan:
	for n < budget {
		if t.Pos == t.N && !t.Slide() {
			break
		}
		if t.Buf[t.Pos] != '<' {
			text, terr := t.skipText()
			if terr != nil {
				err = t.errOr(terr)
				break
			}
			if text {
				n++
			}
			continue
		}
		if t.Pos+1 == t.N && !t.Ensure(2) {
			break
		}
		switch t.Buf[t.Pos+1] {
		case '/':
			k := t.skipEnd()
			if k < 0 && t.Err == nil {
				t.growTag(2, false)
				k = t.skipEnd()
			}
			if k <= 0 {
				break scan
			}
			n++
		case '?':
			t.Pos += 2
			if perr := t.skip(PI, "unterminated processing instruction"); perr != nil {
				err = t.errOr(perr)
				break scan
			}
		case '!':
			t.Pos++
			text, berr := t.bang(false)
			if berr != nil {
				err = t.errOr(berr)
				break scan
			}
			if text {
				n++
			}
		default:
			k := t.skipStart()
			if k < 0 && t.Err == nil {
				t.growTag(1, true)
				k = t.skipStart()
			}
			if k <= 0 {
				break scan
			}
			if n += k; n > budget {
				t.owed, n = n-budget, budget
			}
		}
	}
	return n, a.depth - depth, err
}

// openArena interns the names SkipContent left open onto the element
// stack, innermost last, and empties the arena.
//
//gcxlint:noalloc
func (t *Tokenizer) openArena() {
	for d := range t.arena.depth {
		t.stack = append(t.stack, t.intern(t.arena.name(d)))
	}
	t.arena.depth = 0
}

// skipText is readText with nothing copied: it reads the character data
// at Pos and reports whether Next would have made a Text token of it. An
// entity is resolved into a scratch array, which only checks it.
//
//gcxlint:noalloc
func (t *Tokenizer) skipText() (bool, error) {
	ws := true
	for p := t.Pos; ; {
		i := t.Idx.Next(p)
		if i < 0 {
			ws = ws && IsAllSpace(t.Buf[t.Pos:t.N])
			t.Pos = t.N
			if !t.Slide() {
				return !ws, nil
			}
			p = t.Pos
			continue
		}
		switch t.Buf[i] {
		case '<':
			ws = ws && IsAllSpace(t.Buf[t.Pos:i])
			t.Pos = i
			return !ws, nil
		case '&':
			// The run is not whitespace, so no byte before the '&' is
			// needed: the window keeps only the entity if it grows.
			ws = false
			t.Pos = i + 1
			var expansion [4]byte
			var err error
			if _, t.Pos, err = t.entity(expansion[:0], t.Pos); err != nil {
				return false, err
			}
			p = t.Pos
		default:
			p = i + 1
		}
	}
}

// skipEnd reads the end tag at Pos if it closes the arena's innermost
// element and returns 1, or returns 0 with nothing consumed, or -1 if the
// window end cuts the tag.
//
//gcxlint:noalloc
func (t *Tokenizer) skipEnd() int64 {
	a := &t.arena
	if a.depth == 0 {
		return 0
	}
	i := t.Pos + 2
	gt := t.Idx.Next(i)
	if gt < 0 {
		return -1
	}
	if t.Buf[gt] != '>' {
		return 0
	}
	j := gt
	for j > i && IsSpace(t.Buf[j-1]) {
		j--
	}
	if !bytes.Equal(t.Buf[i:j], a.name(a.depth-1)) {
		return 0
	}
	a.depth--
	t.Pos = gt + 1
	return 1
}

// skipStart reads the start tag at Pos if it is well formed and holds no
// entity in an attribute value, opening it on the arena unless it closes
// itself. It returns the tokens Next would have produced for it, or, with
// nothing consumed, 0 for openTag to read it, or -1 if the window end
// cuts it.
//
//gcxlint:noalloc
func (t *Tokenizer) skipStart() int64 {
	buf, n := t.Buf, t.N
	i := t.Pos + 1
	if !IsNameStart(buf[i]) {
		return 0
	}
	j := i + 1
	for j < n && IsNameByte(buf[j]) {
		j++
	}
	for p, k := j, int64(1); ; {
		for p < n && IsSpace(buf[p]) {
			p++
		}
		if p == n {
			return -1
		}
		if c := buf[p]; c == '>' || c == '/' {
			switch {
			case c == '>' && t.arena.push(buf[i:j]):
				t.Pos = p + 1
				return k
			case c == '/' && p+1 == n:
				return -1
			case c == '/' && buf[p+1] == '>':
				t.Pos = p + 2
				return k + 1
			}
			return 0
		}
		if !IsNameStart(buf[p]) {
			return 0
		}
		for p++; p < n && IsNameByte(buf[p]); p++ {
		}
		for p < n && IsSpace(buf[p]) {
			p++
		}
		if p == n || buf[p] != '=' {
			return cut(p, n)
		}
		for p++; p < n && IsSpace(buf[p]); p++ {
		}
		if p == n || buf[p] != '"' && buf[p] != '\'' {
			return cut(p, n)
		}
		q, v := buf[p], p+1
		x := t.Idx.Next(v)
		for x >= 0 && buf[x] != q && buf[x] != '&' {
			x = t.Idx.Next(x + 1)
		}
		if x < 0 {
			return -1
		}
		if buf[x] == '&' {
			return 0
		}
		if k += 2; x > v {
			k++ // the value's text
		}
		p = x + 1
	}
}

// cut is what skipStart returns where it stops reading at p: -1 if p is
// the window end n, which cut the tag, 0 if openTag must read it.
//
//gcxlint:noalloc
func cut(p, n int) int64 {
	if p == n {
		return -1
	}
	return 0
}
