package xmlstream

import (
	"bytes"
	"fmt"
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

// TestClassifyKernelMatchesSWAR holds classifyBlocks — the SSE2 kernel on
// amd64, the SWAR loop elsewhere — to the SWAR classifier block for
// block: every byte value in every lane of a block over four
// backgrounds, 10k random blocks, 1 to 9 blocks read from every source
// offset 0 to 15 (the kernel's loads are unaligned), and Extend from every
// offset of a three-block buffer against Build.
func TestClassifyKernelMatchesSWAR(t *testing.T) {
	const sentinel = 0x5a5a5a5a5a5a5a5a
	dst := make([]uint64, 10)
	// check hands classifyBlocks k words, which it fills up to the
	// blocks src holds.
	check := func(what string, src []byte, k int) {
		t.Helper()
		for i := range dst {
			dst[i] = sentinel
		}
		classifyBlocks(dst[:k], src)
		n := min(k, len(src)/64)
		for b := range n {
			if want := classifyBlock(src[b*64:]); dst[b] != want {
				t.Fatalf("%s: block %d of %d: kernel %064b, SWAR %064b", what, b, n, dst[b], want)
			}
		}
		if dst[n] != sentinel {
			t.Fatalf("%s: classifyBlocks wrote past its %d blocks", what, n)
		}
	}

	var blk [64]byte
	for _, bg := range []byte{0x00, 'a', '"', 0xff} {
		for lane := range 64 {
			for v := range 256 {
				for i := range blk {
					blk[i] = bg
				}
				blk[lane] = byte(v)
				check(fmt.Sprintf("background %#x, lane %d = %#x", bg, lane, v), blk[:], 1)
			}
		}
	}

	// Random blocks, half over every byte value and half over the bytes
	// next to the folds (0xbe and 0xa7 differ from '>' and '\'' in the
	// high bit only).
	near := []byte("<>=?&'%\"#x\x00\xbe\xbc\xa7\xa6\xa2")
	rnd := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		rnd ^= rnd << 13
		rnd ^= rnd >> 7
		rnd ^= rnd << 17
		return rnd
	}
	for n := range 10000 {
		for i := range blk {
			if n%2 == 0 {
				blk[i] = byte(next())
			} else {
				blk[i] = near[next()%uint64(len(near))]
			}
		}
		check(fmt.Sprintf("random block %d", n), blk[:], 1)
	}

	buf := make([]byte, 9*64+16+63)
	for i := range buf {
		buf[i] = near[next()%uint64(len(near))]
	}
	for off := range 16 {
		for k := 1; k <= 9; k++ {
			check(fmt.Sprintf("%d blocks at offset %d", k, off), buf[off:off+k*64], k)
			// The blocks src holds bound the count, not the words.
			check(fmt.Sprintf("%d blocks at offset %d, %d bytes", k, off, k*64+63), buf[off:off+k*64+63], k)
			check(fmt.Sprintf("%d words at offset %d, %d bytes", k, off, k*64-1), buf[off:off+k*64-1], k)
		}
	}

	for _, n := range []int{150, 192} {
		var whole, ext StructIndex
		whole.Build(buf[:n])
		for from := 0; from <= n; from++ {
			ext.Build(buf[:from])
			ext.Extend(buf[:n], from)
			if !slices.Equal(ext.words, whole.words) || ext.n != whole.n {
				t.Fatalf("%d bytes: Extend from %d differs from Build", n, from)
			}
		}
	}
}

// FuzzStructIndex builds the index over a prefix of arbitrary bytes and
// extends it over the rest: Next must agree with the per-byte oracle at
// every offset, the bits set must count the structural bytes, and the
// words must equal those one Build over the whole input gives.
func FuzzStructIndex(f *testing.F) {
	f.Add([]byte(""), uint(0))
	f.Add([]byte(`<a k="v" j='w'>text &amp; more</a>`), uint(9))
	f.Add([]byte(strings.Repeat("x", 63)+`<>&"'`+strings.Repeat("y", 60)), uint(64))
	f.Add([]byte(strings.Repeat(`<e a="1"/>`, 20)), uint(130))
	f.Add([]byte("\x00\xbe\xbc\xa7\xa6\xa2>'\""), uint(3))
	f.Fuzz(func(t *testing.T, data []byte, split uint) {
		from := int(split % uint(len(data)+1))
		var ix, whole StructIndex
		ix.Build(data[:from])
		ix.Extend(data, from)
		// naiveNext(data, p) is the same for every p up to its answer, so
		// it is asked again only past it: linear work per input.
		want := naiveNext(data, -1)
		for p := -1; p <= len(data)+1; p++ {
			if want >= 0 && p > want {
				want = naiveNext(data, p)
			}
			if got := ix.Next(p); got != want {
				t.Fatalf("split %d: Next(%d) = %d, want %d", from, p, got, want)
			}
		}
		if got, want := indexedCount(&ix), countStructural(data); got != want {
			t.Fatalf("split %d: %d bits set, want %d", from, got, want)
		}
		whole.Build(data)
		if !slices.Equal(ix.words, whole.words) || ix.n != whole.n {
			t.Fatalf("split %d: Extend differs from Build", from)
		}
	})
}
