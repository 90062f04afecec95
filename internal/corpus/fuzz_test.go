package corpus

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"gcx/internal/xmlstream"
)

// FuzzSplit drives the concatenated-document scanner with arbitrary
// bytes and checks its structural contract:
//
//  1. it frames exactly the documents referenceSplit — the per-byte
//     state machine, which has no window to refill — frames, whether
//     the input arrives whole or 1, 2, 7, 63, 64, 65, 127, 128 or 4096
//     bytes at a time, with and without a size cap;
//  2. it terminates without panicking, and every returned document is
//     accounted against the input (no invented bytes);
//  3. splitting is stable: re-splitting the concatenation of the
//     emitted documents yields the same documents (the splitter's
//     boundaries are self-consistent, so a bulk run over its own
//     output partitions identically);
//  4. every emitted document can be fed to the engine's tokenizer,
//     which either tokenizes it or reports a syntax error — never
//     hangs or panics (per-document failures stay per-document).
func FuzzSplit(f *testing.F) {
	f.Add([]byte("<a><b>x</b></a><c/>"))
	f.Add([]byte(`<?xml version="1.0"?><a/><?xml version="1.0"?><b/>`))
	f.Add([]byte("<a/><!-- between --><?pi?><b/>"))
	f.Add([]byte("<!DOCTYPE a [<!ELEMENT a ANY>]><a>t</a><b>u</b>"))
	f.Add([]byte("<a/><b><truncated>"))
	f.Add([]byte("\xEF\xBB\xBF<a/>\xEF\xBB\xBF<b/>"))
	f.Add([]byte("<a><![CDATA[x]]]]><![CDATA[>]]></a><b/>"))
	f.Add([]byte(`<a x="1>2" y='</a>'><c/></a><b/>`))
	f.Add([]byte("<a><!-- ---></a><b/>"))
	f.Add([]byte("<a/>junk<b/>"))
	f.Add([]byte("<q1>text&amp;more</q1>\n<q2 attr=\"v\"/>"))
	f.Add([]byte(`<!DOCTYPE a [<!ENTITY lt "<"><!-- don't --><?p '> ?>]><a/><b/>`))
	for _, s := range terminatorEdgeStreams() {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstReference(t, data, 0)
		checkAgainstReference(t, data, 16)

		docs, err := drainSplitter(data)
		if err != nil {
			t.Fatalf("terminal error on in-memory input: %v", err)
		}
		var total int
		for _, d := range docs {
			total += len(d)
		}
		if total > len(data) {
			t.Fatalf("emitted %d bytes from %d input bytes", total, len(data))
		}

		// Stability: split(join(split(x))) == split(x).
		joined := bytes.Join(docs, nil)
		again, err := drainSplitter(joined)
		if err != nil {
			t.Fatalf("terminal error on re-split: %v", err)
		}
		if len(again) != len(docs) {
			t.Fatalf("re-split changed the document count: %d -> %d\ninput: %q\ndocs: %q\nagain: %q",
				len(docs), len(again), data, docs, again)
		}
		for i := range docs {
			if !bytes.Equal(docs[i], again[i]) {
				t.Fatalf("re-split changed doc %d:\n was %q\n now %q", i, docs[i], again[i])
			}
		}

		// Every document must be safely tokenizable (success or syntax
		// error, bounded work).
		for _, d := range docs {
			tok := xmlstream.NewTokenizerOptions(bytes.NewReader(d), xmlstream.DefaultOptions())
			for {
				tk, err := tok.Next()
				if err != nil || tk.Kind == xmlstream.EOF {
					break
				}
			}
		}
	})
}

// drainSplitter returns all documents of data; per-document size-cap
// errors cannot occur (no cap is set), so any non-EOF error is
// terminal and unexpected for an in-memory reader.
func drainSplitter(data []byte) ([][]byte, error) {
	sp := NewSplitter(strings.NewReader(string(data)))
	var docs [][]byte
	for {
		d, err := sp.Next(nil)
		if err == io.EOF {
			return docs, nil
		}
		if err != nil {
			var tooBig *DocTooLargeError
			if errors.As(err, &tooBig) {
				docs = append(docs, nil)
				continue
			}
			return docs, err
		}
		docs = append(docs, append([]byte(nil), d...))
	}
}

// splitReadSizes are the refill windows the differential frames every
// input at: one and two bytes, a small odd size, the structural index's
// 64-byte block edges, a page, and unbounded (0).
var splitReadSizes = []int{1, 2, 7, 63, 64, 65, 127, 128, 4096, 0}

// checkAgainstReference frames input with the production splitter at
// every read size and requires referenceSplit's documents, byte for
// byte, each time. max is the per-document cap (0: none).
func checkAgainstReference(t *testing.T, input []byte, max int64) {
	t.Helper()
	want := referenceSplit(input, max)
	for _, k := range splitReadSizes {
		sp := NewSplitter(capReader{r: bytes.NewReader(input), k: k})
		sp.SetMaxDocBytes(max)
		var buf []byte
		for i := 0; ; i++ {
			d, err := sp.Next(buf)
			var tooBig *DocTooLargeError
			switch {
			case err == io.EOF:
				if i != len(want) {
					t.Fatalf("read size %d, cap %d: %d documents, reference frames %d\ninput: %q", k, max, i, len(want), input)
				}
			case errors.As(err, &tooBig):
				if i >= len(want) || !want[i].tooLarge {
					t.Fatalf("read size %d, cap %d: document %d over the cap, reference disagrees\ninput: %q", k, max, i, input)
				}
				continue
			case err != nil:
				t.Fatalf("read size %d: terminal error on in-memory input: %v", k, err)
			case i >= len(want) || want[i].tooLarge || !bytes.Equal(d, want[i].data):
				t.Fatalf("read size %d, cap %d: document %d is %q, reference frames %v\ninput: %q", k, max, i, d, want, input)
			default:
				buf = d
				continue
			}
			break
		}
	}
}

// terminatorEdgeStreams are xmlstream's terminatorEdgeCorpus, framed
// here: the '>' of every opaque-region terminator at offsets 63, 64 and
// 65, with the bytes before it that close the region across the index's
// block edge — "-->", "--->", "?>", "]]>", "]]]>", and a DOCTYPE's '>'
// after a quoted '>', a nested comment or a nested PI — and the
// malformed openers, which the splitter passes through as character data
// or declarations, ending at the same offsets.
func terminatorEdgeStreams() []string {
	var out []string
	for _, at := range []int{63, 64, 65} {
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
