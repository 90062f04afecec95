package xmlstream

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"gcx/internal/xmark"
)

// The differential conformance suite: the chunked Tokenizer and the
// retained per-byte Reference scanner must produce byte-identical token
// streams — and identical errors — on every input, at every refill
// boundary size. Window sizes 1, 2, and 7 force every run (text,
// attribute values, comment/PI/CDATA/DOCTYPE interiors, names,
// whitespace) to straddle refills; 4096 and the unbounded reader exercise
// the zero-copy in-window fast paths.

// diffWindows are the refill boundary sizes under test; 0 means "let the
// reader hand over everything it has" (strings.Reader semantics).
// 63/64/65 straddle the structural index's 64-byte block edges, so every
// construct is also exercised with its structural bytes landing on the
// last bit of one bitmap word and the first bit of the next.
var diffWindows = []int{1, 2, 7, 63, 64, 65, 127, 128, 4096, 0}

// chunkReader yields at most k bytes per Read, bounding the tokenizer's
// lookahead window to k bytes so runs straddle refills.
type chunkReader struct {
	data []byte
	k    int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := len(r.data)
	if r.k > 0 && n > r.k {
		n = r.k
	}
	if n > len(p) {
		n = len(p)
	}
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

// values adapts tok's Next to the value form Reference.Next hands out.
func values(tok *Tokenizer) func() (Token, error) {
	return func() (Token, error) {
		tk, err := tok.Next()
		if err != nil {
			return Token{}, err
		}
		return *tk, nil
	}
}

// drainCloned drains a token stream, cloning borrowed text so streams
// from pooled scratch can be compared after the fact.
func drainCloned(next func() (Token, error)) ([]Token, error) {
	var out []Token
	for {
		tk, err := next()
		if err != nil {
			return out, err
		}
		if tk.Kind == EOF {
			return out, nil
		}
		tk.Data = strings.Clone(tk.Data)
		out = append(out, tk)
	}
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// diffOne tokenizes src with both scanners at the given window size and
// options and reports any divergence in tokens or errors. The scanners
// share testSyms, so a tag that reads the same in both has one Sym, and
// a tokenizer that gave a tag another name's Sym diverges.
func diffOne(t *testing.T, src []byte, window int, opts Options) {
	t.Helper()
	chunked := newTestTokenizer(&chunkReader{data: src, k: window}, opts)
	ctoks, cerr := drainCloned(values(chunked))
	ref := NewReference(&chunkReader{data: src, k: window}, opts, testSyms)
	rtoks, rerr := drainCloned(ref.Next)

	if errString(cerr) != errString(rerr) {
		t.Fatalf("window %d, opts %+v: error divergence\n chunked:   %s\n reference: %s\n input: %q",
			window, opts, errString(cerr), errString(rerr), truncate(src))
	}
	if len(ctoks) != len(rtoks) {
		t.Fatalf("window %d, opts %+v: token count %d vs %d\n input: %q",
			window, opts, len(ctoks), len(rtoks), truncate(src))
	}
	for i, tk := range ctoks {
		if tk != rtoks[i] {
			t.Fatalf("window %d, opts %+v: token %d diverges\n chunked:   %s (Sym %d)\n reference: %s (Sym %d)\n input: %q",
				window, opts, i, tk.Render(testSyms), tk.Sym, rtoks[i].Render(testSyms), rtoks[i].Sym, truncate(src))
		}
	}
}

func truncate(b []byte) string {
	if len(b) > 256 {
		return string(b[:256]) + fmt.Sprintf("...(%d bytes)", len(b))
	}
	return string(b)
}

// diffOptionSets are the two configurations there are: owned text and
// borrowed text (the engine's mode).
var diffOptionSets = []Options{{}, {BorrowText: true}}

// differentialCorpus is the hand-built input set: every fast path, every
// terminator, every straddle-prone construct, plus malformed variants of
// each (the scanners must agree on errors, not just successes).
var differentialCorpus = []string{
	// Fuzz seeds (keep in sync with FuzzTokenizer).
	`<a/>`,
	`<bib><book year="1994"><title>TCP/IP</title></book></bib>`,
	`<a>x&amp;y&#65;<![CDATA[<raw>]]></a>`,
	`<?xml version="1.0"?><!DOCTYPE a><a><!-- c --><b/>t</a>`,
	`<a><b>1</b> <b>2</b></a>`,
	`<a>&#x10FFFF;</a>`,
	`<q><w e="r"/></q><junk`,

	// Text runs: long, whitespace-only, entity-dense, boundary entities.
	`<a>` + strings.Repeat("lorem ipsum dolor sit amet ", 400) + `</a>`,
	`<a>` + strings.Repeat(" \t\n\r", 300) + `</a>`,
	`<a>` + strings.Repeat(" ", 100) + `x</a>`, // whitespace across a refill, then text
	`<a>` + strings.Repeat("x&amp;", 200) + `</a>`,
	`<a>&lt;tag&gt; &quot;q&quot; &apos;a&apos;</a>`,
	`<a>text&`, // truncated entity
	`<a>a&bogus;b</a>`,
	`<a>&#x;</a>`,
	"<a>pre <b>in</b> post\n</a>\n",

	// Attribute values: long, entity-bearing, both quotes, '>' inside.
	`<a k="` + strings.Repeat("v", 9000) + `"/>`,
	`<a k="x&amp;y" j='1&#65;2'/>`,
	`<a k="a > b" j='< raw'/>`,
	`<a k="unterminated`,
	`<a k=>`,
	`<a k="v" k2`,

	// Comments: dash runs, terminator overlaps, interior sentinels.
	`<a><!-- plain --></a>`,
	`<a><!----></a>`,
	`<a><!-- ` + strings.Repeat("-", 500) + ` --></a>`,
	`<a><!-- x ---></a>`,
	`<a><!-- > < " -- almost --></a>`,
	`<a><!-- unterminated`,
	`<a><!-- unterminated --`,

	// PIs: '?' runs, overlapping terminators.
	`<a><?pi data?></a>`,
	`<a><?pi ` + strings.Repeat("?", 300) + `?></a>`,
	`<a><?pi q? >x?></a>`,
	`<a><?pi unterminated`,

	// CDATA: bracket runs, terminator edges, empty.
	`<a><![CDATA[]]></a>`,
	`<a><![CDATA[x]]]></a>`,
	`<a><![CDATA[` + strings.Repeat("]", 400) + `]]></a>`,
	`<a><![CDATA[a]]b]>c]]></a>`,
	`<a><![CDATA[` + strings.Repeat("interior text ", 300) + `]]></a>`,
	`<a><![CDATA[unterminated`,
	`<a><![CDAT[x]]></a>`,

	// DOCTYPE: internal subsets, quoted '<'/'>', subset comments and PIs.
	`<!DOCTYPE a><a/>`,
	`<!DOCTYPE a [<!ENTITY lt "<">]><a/>`,
	`<!DOCTYPE a [<!ELEMENT a (b|c)*><!ATTLIST a x CDATA "y>z">]><a/>`,
	`<!DOCTYPE a [<!-- <not> nested --><?pi >?>]><a/>`,
	`<!DOCTYPE a [` + strings.Repeat("<!ENTITY e 'v'>", 100) + `]><a/>`,
	`<!DOCTYPE a [<!ENTITY broken`,
	`<!DOCTYPE a [<!-- unterminated`,

	// Names and whitespace: long names, straddling tags, deep spaces.
	`<` + strings.Repeat("n", 3000) + `/>`,
	`<a    k = "v"    ></a    >`,
	"<a\n\t k1=\"v1\"\n\t k2='v2'\n/>",

	// Structure errors: the state machine boundaries.
	`<a><b></a>`,
	`<a></a><b/>`,
	`junk<a/>`,
	`<a/>trailing`,
	`< a/>`,
	`<a><`,
	``,
	`   `,
}

// blockEdgeCorpus places structural bytes and straddle-prone constructs
// exactly on the structural index's 64-byte block edges (offsets 63, 64,
// 65): tags, quoted attribute values, and entity references split across
// blocks, plus '<'/'>' inside opaque regions (CDATA, comments, DOCTYPE)
// at the edge. pad(n) emits n bytes of inert text so the construct under
// test starts at a chosen absolute offset.
func blockEdgeCorpus() []string {
	pad := func(n int) string { return strings.Repeat("x", n) }
	var out []string
	// A start tag whose '<', name, '=', quotes, '/' and '>' each land at
	// offsets 63, 64, and 65 in turn. "<r>" occupies offsets 0-2, so the
	// construct starts at 3+len(pad).
	for _, at := range []int{63, 64, 65} {
		p := pad(at - 3)
		out = append(out,
			`<r>`+p+`<b k="v" j='w'>t</b></r>`,   // '<' at the edge
			`<r>`+pad(at-4)+`<b k="v">t</b></r>`, // name at the edge
			`<r>`+p+`</r>`,                       // closing tag at the edge
			`<r><b>`+pad(at-6)+`</b></r>`,
			`<r>`+p+`&amp;&#65;</r>`,                   // entity '&' at the edge
			`<r>`+pad(at-8)+`&amp;tail</r>`,            // entity ';' near the edge
			`<r><b k="`+pad(at-9)+`" j='v'/></r>`,      // closing quote near the edge
			`<r><b k="`+pad(at-9)+`>" j='<raw>'/></r>`, // '>' '<' inside values at the edge
			`<r><b `+pad(0)+`k`+strings.Repeat(" ", at%7+1)+`= "v"/></r>`,
			`<r><![CDATA[`+pad(at-12)+`<in>]]>]]></r>`, // '<'/'>' in CDATA at the edge
			`<r><!--`+pad(at-7)+`<c> -- x--></r>`,      // '<'/'>' in a comment at the edge
			`<r><?pi `+pad(at-8)+`<p> ??></r>`,         // '<'/'>' in a PI at the edge
		)
		// DOCTYPE internal subset with quoted '<'/'>' hitting the edge.
		out = append(out,
			`<!DOCTYPE r [<!ENTITY e "`+pad(at-26)+`<v>">]><r/>`,
			`<!DOCTYPE r [`+pad(at-14)+`<!-- < > -->]><r/>`,
		)
	}
	// Structural bytes at exactly 63/64/65 with nothing else around them,
	// in one document: text runs sized so consecutive '<' bytes land on
	// 63, 64, and 65 across self-closing tags.
	out = append(out,
		`<r>`+pad(60)+`<b/>`+`<c/>`+pad(61)+`<d/></r>`,
		`<r>`+pad(61)+`<b x="`+pad(63)+`"/></r>`,
		// A tag spanning a whole block: attributes from offset 63 to 130.
		`<r>`+pad(60)+`<b aaaaaaaaaaaaaaaa="bbbbbbbbbbbbbbbb" cccccccccccccccc='dddddddddddddddd'/></r>`,
	)
	return append(out, terminatorEdgeCorpus()...)
}

// terminatorEdgeCorpus puts the '>' of every opaque-region terminator at
// offsets 63, 64 and 65 — the last byte of an index block and the first
// and second of the next — so the bytes before it that close the region
// sit across the block edge (and, read 63, 64 or 65 bytes at a time,
// across a slide): "-->", "--->", "?>", "]]>", "]]]>", and a DOCTYPE's
// '>' after a quoted '>', a nested comment or a nested PI. The malformed
// openers end at the same offsets. FuzzTokenizer seeds with these too,
// and internal/corpus frames the same strings.
func terminatorEdgeCorpus() []string {
	var out []string
	for _, at := range []int{63, 64, 65} {
		// end pads between head and tail so that tail's last byte lands
		// at offset at.
		end := func(head, tail, rest string) string {
			return head + strings.Repeat("x", at+1-len(head)-len(tail)) + tail + rest
		}
		out = append(out,
			end(`<r><!--`, `-->`, `</r>`),
			end(`<r><!--`, `--->`, `</r>`),
			end(`<r><?pi `, `?>`, `</r>`),
			end(`<r><![CDATA[`, `]]>`, `</r>`),
			end(`<r><![CDATA[`, `]]]>`, `</r>`),
			end(`<!DOCTYPE r SYSTEM "`, `>">`, `<r/>`),
			end(`<!DOCTYPE r [<!ELEMENT r ANY><!-- `, `-->]>`, `<r/>`),
			end(`<!DOCTYPE r [<?pi `, `?>]>`, `<r/>`),
		)
		for _, opener := range []string{`<!-x`, `<![CDAT`, `<!>`, `<?>`, `<!-->`} {
			out = append(out, end(`<r>`, opener, `</r>`))
		}
	}
	return out
}

// TestDifferentialCorpus sweeps the hand-built corpus across all window
// sizes and option sets.
func TestDifferentialCorpus(t *testing.T) {
	for i, src := range differentialCorpus {
		t.Run(fmt.Sprintf("case%02d", i), func(t *testing.T) {
			for _, w := range diffWindows {
				for _, opts := range diffOptionSets {
					diffOne(t, []byte(src), w, opts)
				}
			}
		})
	}
}

// TestDifferentialBlockEdges sweeps the generated block-boundary
// adversarial corpus: every construct with its structural bytes pinned to
// the index's 64-byte block edges, across all windows and option sets.
func TestDifferentialBlockEdges(t *testing.T) {
	for i, src := range blockEdgeCorpus() {
		t.Run(fmt.Sprintf("case%02d", i), func(t *testing.T) {
			for _, w := range diffWindows {
				for _, opts := range diffOptionSets {
					diffOne(t, []byte(src), w, opts)
				}
			}
		})
	}
}

// TestDifferentialSeedCorpus replays any committed fuzz findings
// (testdata/fuzz/FuzzTokenizer) through the differential check, so every
// crasher the fuzzer ever minimized keeps guarding the chunked scanner.
func TestDifferentialSeedCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzTokenizer")
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		t.Skip("no committed fuzz corpus")
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		src, err := loadFuzzCorpusString(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		t.Run(e.Name(), func(t *testing.T) {
			for _, w := range diffWindows {
				for _, opts := range diffOptionSets {
					diffOne(t, []byte(src), w, opts)
				}
			}
		})
	}
}

// loadFuzzCorpusString parses a "go test fuzz v1" corpus file holding a
// single string argument.
func loadFuzzCorpusString(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[0], "go test fuzz") {
		return "", fmt.Errorf("not a fuzz corpus file")
	}
	arg := strings.TrimSpace(lines[1])
	const prefix = "string("
	if !strings.HasPrefix(arg, prefix) || !strings.HasSuffix(arg, ")") {
		return "", fmt.Errorf("unsupported corpus argument %q", arg)
	}
	return strconv.Unquote(arg[len(prefix) : len(arg)-1])
}

// TestDifferentialXMark runs a generated XMark document — the realistic
// mix of long text, attribute-bearing tags, and markup runs — through
// both scanners at straddle-forcing and fast-path window sizes.
func TestDifferentialXMark(t *testing.T) {
	var buf strings.Builder
	if _, err := xmark.Generate(&buf, xmark.Config{Factor: xmark.FactorForSize(200 << 10), Seed: 7}); err != nil {
		t.Fatal(err)
	}
	doc := []byte(buf.String())
	windows := []int{3, 4096, 0}
	if testing.Short() {
		windows = []int{4096}
	}
	for _, w := range windows {
		for _, opts := range diffOptionSets {
			diffOne(t, doc, w, opts)
		}
	}
}

// TestBorrowedWindowTextSurvivesUntilNext pins the zero-copy contract:
// a Text token borrowed from the lookahead window stays intact until the
// following Next call, even when the next markup sits at the window edge.
func TestBorrowedWindowTextSurvivesUntilNext(t *testing.T) {
	doc := `<a>` + strings.Repeat("abcdefgh", 64) + `<b/></a>`
	opts := DefaultOptions()
	opts.BorrowText = true
	tok := NewTokenizerOptions(&chunkReader{data: []byte(doc), k: 600}, opts)
	var text string
	for {
		tk, err := tok.Next()
		if err != nil {
			t.Fatal(err)
		}
		if tk.Kind == Text {
			// Inspect the borrowed data NOW (before the next call), as the
			// contract requires, and copy it.
			text = strings.Clone(tk.Data)
		}
		if tk.Kind == EOF {
			break
		}
	}
	if want := strings.Repeat("abcdefgh", 64); text != want {
		t.Fatalf("borrowed text corrupted: got %d bytes, want %d", len(text), len(want))
	}
}
