package xmlstream

import "strings"

// Sym is an interned tag name. The buffer manager stores symbols instead of
// strings ("we use a symbol table to replace tagnames by integers",
// Section 6 of the paper).
type Sym int32

// NoSym is the zero Sym; it is never assigned to a name.
const NoSym Sym = 0

// SymTab interns tag and attribute names to dense integer symbols: the one
// place a name becomes a Sym. A run has one table, which the tokenizer, the
// buffer and the evaluators share. A pooled run state keeps its table, and
// every name in it, across documents: a Sym stays valid for as long as the
// table does, and Retained tells the owner how large the names have made
// it. It is not safe for concurrent use; the engine is single-threaded by
// design (the paper's evaluation loop is strictly sequential).
type SymTab struct {
	byName map[string]Sym
	names  []string
	bytes  int64 // what Retained reports
	// cache is a direct-mapped front for byName: a hot vocabulary
	// resolves with one string compare instead of a map probe. NoSym
	// marks an empty slot.
	cache [symCacheSize]symSlot
}

// symSlot is one cache entry: a name and its symbol.
type symSlot struct {
	name string
	sym  Sym
}

// symCacheSize is the number of cache slots. Real vocabularies are a
// handful of names; 64 slots make collisions rare.
const symCacheSize = 64

// NewSymTab returns an empty symbol table.
func NewSymTab() *SymTab {
	return &SymTab{
		byName: make(map[string]Sym, 64),
		names:  make([]string, 1, 64), // names[0] reserved for NoSym
	}
}

// Intern returns the symbol for name, assigning a fresh one if needed. An
// evaluator interns its query's vocabulary with it as a run starts; the
// tokenizer reaches the same lookup with the bytes of its window.
func (s *SymTab) Intern(name string) Sym { return s.lookup(name, false) }

// lookup returns the symbol for name: the cache first, the map second, a
// fresh symbol last. A borrowed name is a view of the caller's bytes, and
// a new one is copied once; the map lookup on it does not allocate.
//
//gcxlint:noalloc
func (s *SymTab) lookup(name string, borrowed bool) Sym {
	h := uint32(len(name))
	if len(name) > 0 {
		h += uint32(name[0])*131 + uint32(name[len(name)-1])*31
	}
	h %= symCacheSize
	if c := s.cache[h]; c.sym != NoSym && c.name == name {
		return c.sym
	}
	sym, ok := s.byName[name]
	if !ok {
		if borrowed {
			name = strings.Clone(name) //gcxlint:allocok interning copies each distinct name exactly once
		}
		sym = Sym(len(s.names))
		s.names = append(s.names, name)
		s.byName[name] = sym
		s.bytes += int64(len(name)) + 64 // its map entry and names slot, with their room to grow
	}
	s.cache[h] = symSlot{s.names[sym], sym}
	return sym
}

// Retained reports what the interned names cost, a running total.
//
//gcxlint:noalloc
func (s *SymTab) Retained() int64 { return s.bytes }

// Name returns the string for a symbol. It panics on an unknown symbol,
// which indicates engine corruption rather than a user error.
func (s *SymTab) Name(sym Sym) string {
	return s.names[sym]
}

// Len returns the number of interned names.
func (s *SymTab) Len() int { return len(s.names) - 1 }

// IsNameStart reports whether c can start a name: an ASCII letter, '_',
// ':' or any byte ≥ 0x80 (wider than XML 1.0's NameStartChar). Every
// parser of the module reads names with it and IsNameByte.
//
//gcxlint:noalloc
func IsNameStart(c byte) bool {
	return c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

// IsNameByte reports whether c can continue a name: a name-start byte, a
// digit, '-' or '.'.
//
//gcxlint:noalloc
func IsNameByte(c byte) bool {
	return IsNameStart(c) || c == '-' || c == '.' || (c >= '0' && c <= '9')
}

// IsSpace reports whether c is XML whitespace: space, tab, LF or CR.
//
//gcxlint:noalloc
func IsSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

// IsAllSpace reports whether every byte of b is XML whitespace.
//
//gcxlint:noalloc
func IsAllSpace(b []byte) bool {
	for _, c := range b {
		if !IsSpace(c) {
			return false
		}
	}
	return true
}
