package xmlstream

// Sym is an interned tag name. The buffer manager stores symbols instead of
// strings ("we use a symbol table to replace tagnames by integers",
// Section 6 of the paper).
type Sym int32

// NoSym is the zero Sym; it is never assigned to a name.
const NoSym Sym = 0

// SymTab interns tag names to dense integer symbols. It is not safe for
// concurrent use; the engine is single-threaded by design (the paper's
// evaluation loop is strictly sequential).
type SymTab struct {
	byName map[string]Sym
	names  []string
}

// NewSymTab returns an empty symbol table.
func NewSymTab() *SymTab {
	return &SymTab{
		byName: make(map[string]Sym, 64),
		names:  make([]string, 1, 64), // names[0] reserved for NoSym
	}
}

// Intern returns the symbol for name, assigning a fresh one if needed. It
// is the table's only string-keyed access: the projector interns a tag as
// it buffers the element, an evaluator interns its query's vocabulary once
// as a run starts, and from there on both sides hold integers.
func (s *SymTab) Intern(name string) Sym {
	if sym, ok := s.byName[name]; ok {
		return sym
	}
	sym := Sym(len(s.names))
	s.names = append(s.names, name)
	s.byName[name] = sym
	return sym
}

// Reset drops all interned names. Only valid when no buffered node still
// carries a Sym (the engine resets the buffer first); retained capacity
// makes re-interning a steady vocabulary allocation-free.
func (s *SymTab) Reset() {
	clear(s.byName)
	s.names = s.names[:1]
}

// Name returns the string for a symbol. It panics on an unknown symbol,
// which indicates engine corruption rather than a user error.
func (s *SymTab) Name(sym Sym) string {
	return s.names[sym]
}

// Len returns the number of interned names.
func (s *SymTab) Len() int { return len(s.names) - 1 }
