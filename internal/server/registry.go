package server

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Registry is the set of named queries a gcxd instance serves by id.
// It is immutable after loading; handlers read it concurrently.
type Registry struct {
	ids  []string // registration order (full-fleet /workload output order)
	byID map[string]string
}

// NewRegistry builds a registry from (id, query) pairs given in order.
func NewRegistry() *Registry {
	return &Registry{byID: map[string]string{}}
}

// Add registers a query under id. Duplicate ids are an error: silently
// shadowing a served query is how stale results happen. The id "inline"
// is reserved: it names the TTFR series of inline queries.
func (r *Registry) Add(id, query string) error {
	if id == "" {
		return fmt.Errorf("registry: empty query id")
	}
	if strings.ContainsAny(id, " \t\n") {
		return fmt.Errorf("registry: query id %q contains whitespace", id)
	}
	if id == inlineLabel {
		return fmt.Errorf("registry: query id %q is reserved for inline queries", id)
	}
	if _, dup := r.byID[id]; dup {
		return fmt.Errorf("registry: duplicate query id %q", id)
	}
	r.ids = append(r.ids, id)
	r.byID[id] = query
	return nil
}

// IDs returns the registered ids in registration order.
func (r *Registry) IDs() []string { return append([]string{}, r.ids...) }

// Get returns the query text for id.
func (r *Registry) Get(id string) (string, bool) {
	q, ok := r.byID[id]
	return q, ok
}

// Len returns the number of registered queries.
func (r *Registry) Len() int { return len(r.ids) }

// LoadRegistry loads queries from path. A directory registers every *.xq
// file in lexical order under its basename (sans extension); a file is
// parsed with ParseRegistry.
func LoadRegistry(path string) (*Registry, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if !fi.IsDir() {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return ParseRegistry(baseID(path), f)
	}
	entries, err := os.ReadDir(path)
	if err != nil {
		return nil, err
	}
	reg := NewRegistry()
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".xq") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("registry: no *.xq files in %s", path)
	}
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(path, name))
		if err != nil {
			return nil, err
		}
		if err := reg.Add(baseID(name), string(data)); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// ParseRegistry reads a registry file: queries separated by lines of the
// form "=== <id>". Text before the first separator (or a file with no
// separators) is one query registered under defaultID.
func ParseRegistry(defaultID string, src io.Reader) (*Registry, error) {
	reg := NewRegistry()
	id := defaultID
	var body strings.Builder
	flush := func() error {
		q := strings.TrimSpace(body.String())
		body.Reset()
		if q == "" {
			return nil
		}
		return reg.Add(id, q)
	}
	sc := bufio.NewScanner(src)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "=== "); ok {
			if err := flush(); err != nil {
				return nil, err
			}
			id = strings.TrimSpace(rest)
			continue
		}
		body.WriteString(line)
		body.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if reg.Len() == 0 {
		return nil, fmt.Errorf("registry: no queries found")
	}
	return reg, nil
}

func baseID(path string) string {
	return strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
}
