package xmlstream

import (
	"bytes"
	"math/bits"
	"slices"
	"strings"
	"testing"
)

func isStructural(c byte) bool {
	switch c {
	case '<', '>', '&', '"', '\'':
		return true
	}
	return false
}

// naiveNext is the per-byte oracle for StructIndex.Next.
func naiveNext(buf []byte, from int) int {
	if from < 0 {
		from = 0
	}
	for i := from; i < len(buf); i++ {
		if isStructural(buf[i]) {
			return i
		}
	}
	return -1
}

// TestStructIndexExhaustive cross-checks Build+Next against the per-byte
// oracle from every query offset, on buffers sized around the 64-byte
// block edges and with structural bytes planted at offsets 63/64/65.
func TestStructIndexExhaustive(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte(""),
		[]byte("x"),
		[]byte("<"),
		bytes.Repeat([]byte{'x'}, 63),
		bytes.Repeat([]byte{'<'}, 64),
		bytes.Repeat([]byte{'x'}, 65),
		[]byte(strings.Repeat("x", 63) + "<"),
		[]byte(strings.Repeat("x", 64) + ">"),
		[]byte(strings.Repeat("x", 65) + "&"),
		[]byte(strings.Repeat("x", 63) + `<>&"'` + strings.Repeat("y", 60)),
		[]byte(`<a k="v" j='w'>text &amp; more</a>`),
	}
	// Every byte value once, spanning several blocks.
	all := make([]byte, 256+37)
	for i := range all {
		all[i] = byte(i % 256)
	}
	cases = append(cases, all)
	// Pseudo-random soup of structural and plain bytes (deterministic).
	rnd := uint64(0x9e3779b97f4a7c15)
	soup := make([]byte, 777)
	alphabet := []byte(`abc<>&"' xyz`)
	for i := range soup {
		rnd ^= rnd << 13
		rnd ^= rnd >> 7
		rnd ^= rnd << 17
		soup[i] = alphabet[rnd%uint64(len(alphabet))]
	}
	cases = append(cases, soup)

	var ix StructIndex
	for ci, buf := range cases {
		ix.Build(buf)
		for from := -1; from <= len(buf)+1; from++ {
			got := ix.Next(from)
			want := naiveNext(buf, from)
			if got != want {
				t.Fatalf("case %d (len %d): Next(%d) = %d, want %d", ci, len(buf), from, got, want)
			}
		}
		if got, want := indexedCount(&ix), countStructural(buf); got != want {
			t.Fatalf("case %d: %d bits set, want %d", ci, got, want)
		}
		// Extending an index built over a prefix gives the index of the
		// whole buffer, wherever the prefix ends.
		var ext StructIndex
		for _, from := range []int{0, 1, 7, 63, 64, 65, len(buf) / 2, len(buf) - 1, len(buf)} {
			if from < 0 || from > len(buf) {
				continue
			}
			ext.Build(buf[:from])
			ext.Extend(buf, from)
			if !slices.Equal(ext.words, ix.words) || ext.n != ix.n {
				t.Fatalf("case %d: Extend from %d differs from Build", ci, from)
			}
		}
	}
}

// indexedCount is the number of bits set in the index.
func indexedCount(ix *StructIndex) int {
	c := 0
	for _, w := range ix.words {
		c += bits.OnesCount64(w)
	}
	return c
}

func countStructural(buf []byte) int {
	c := 0
	for _, b := range buf {
		if isStructural(b) {
			c++
		}
	}
	return c
}

// TestStructIndexReuse pins that Build fully replaces prior contents:
// a long classify followed by a short one must not leak stale bits, and
// Reset must empty the queryable range.
func TestStructIndexReuse(t *testing.T) {
	var ix StructIndex
	ix.Build(bytes.Repeat([]byte{'<'}, 640))
	ix.Build([]byte("plain text only"))
	if got := ix.Next(0); got != -1 {
		t.Fatalf("stale bits after rebuild: Next(0) = %d, want -1", got)
	}
	ix.Build([]byte(`x<y`))
	if got := ix.Next(0); got != 1 {
		t.Fatalf("Next(0) = %d, want 1", got)
	}
	ix.Reset()
	if got := ix.Next(0); got != -1 {
		t.Fatalf("post-Reset Next(0) = %d, want -1", got)
	}
}

// TestStructIndexZeroAlloc pins the index pass at 0 allocs/op once the
// words slice is warm — the classification chain runs inside fill(),
// which the pooled tokenizer requires to be allocation-free.
func TestStructIndexZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	buf := []byte(strings.Repeat(`<edge from="a" to="b"/> text &amp; `, 2000))
	var ix StructIndex
	ix.Build(buf) // warm the words slice
	allocs := testing.AllocsPerRun(20, func() {
		ix.Build(buf)
		p := 0
		for {
			i := ix.Next(p)
			if i < 0 {
				break
			}
			p = i + 1
		}
	})
	if allocs > 0 {
		t.Fatalf("warm Build+Next pass allocates: %.1f allocs/op, want 0", allocs)
	}
}
