package engine

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"gcx/internal/queries"
	"gcx/internal/xmark"
)

// The engine's failure suite (failure_test.go) lifted to several members:
// a shared-stream pass must propagate I/O failures through every member
// evaluator it interrupts, and a single member's output failure must not
// corrupt its siblings.

func compileWorkload(t *testing.T, srcs []string) *Pass {
	t.Helper()
	c, err := CompilePass(srcs, Config{Mode: ModeGCX}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func bigDoc() string {
	return `<bib>` + strings.Repeat(`<book><title>some title</title><price>9</price></book>`, 500) + `</bib>`
}

// TestWorkloadReadErrorReachesEveryMember: a stream failure interrupts the
// single shared pass, so every still-running member must report it.
func TestWorkloadReadErrorReachesEveryMember(t *testing.T) {
	c := compileWorkload(t, []string{
		`<a>{ for $b in /bib/book return $b/title }</a>`,
		`<b>{ for $b in /bib/book return $b/price }</b>`,
	})
	outs := []io.Writer{io.Discard, io.Discard}
	_, qs, err := c.Run(&failingReader{src: strings.NewReader(bigDoc()), n: 300}, outs)
	if err == nil || !strings.Contains(err.Error(), "disk on fire") {
		t.Fatalf("read error must surface verbatim, got %v", err)
	}
	for i, q := range qs {
		if q.Err == nil || !strings.Contains(q.Err.Error(), "disk on fire") {
			t.Fatalf("member %d must report the stream failure, got %v", i, q.Err)
		}
	}
}

// TestWorkloadMemberWriteFailureIsIsolated: one member's sink failing must
// surface as that member's error while the sibling completes its full,
// correct output.
func TestWorkloadMemberWriteFailureIsIsolated(t *testing.T) {
	srcs := []string{
		`<a>{ for $b in /bib/book return $b/title }</a>`,
		`<b>{ for $b in /bib/book return $b/price }</b>`,
	}
	c := compileWorkload(t, srcs)
	doc := bigDoc()

	var good strings.Builder
	bad := &failingWriter{n: 64}
	_, qs, err := c.Run(strings.NewReader(doc), []io.Writer{bad, &good})
	if err == nil || !strings.Contains(err.Error(), "pipe closed") {
		t.Fatalf("write error must surface, got %v", err)
	}
	if qs[0].Err == nil || !strings.Contains(qs[0].Err.Error(), "pipe closed") {
		t.Fatalf("failing member's QueryStats must carry the error, got %v", qs[0].Err)
	}
	if qs[1].Err != nil {
		t.Fatalf("healthy member must not inherit the failure, got %v", qs[1].Err)
	}

	// The sibling's output must be byte-identical to its solo run.
	solo, err := Compile(srcs[1], Config{Mode: ModeGCX})
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if _, err := solo.Run(strings.NewReader(doc), &want); err != nil {
		t.Fatal(err)
	}
	if good.String() != want.String() {
		t.Fatal("sibling output corrupted by the failing member")
	}
}

// TestWorkloadTruncatedInput: a document cut off mid-element must produce
// a syntax error, not a hang or a silent partial result.
func TestWorkloadTruncatedInput(t *testing.T) {
	c := compileWorkload(t, []string{
		`<a>{ for $b in /bib/book return $b/title }</a>`,
		`<b>{ for $b in /bib/book return $b/price }</b>`,
	})
	doc := bigDoc()
	truncated := doc[:len(doc)/2]
	outs := []io.Writer{io.Discard, io.Discard}
	_, qs, err := c.Run(strings.NewReader(truncated), outs)
	if err == nil || !strings.Contains(err.Error(), "unexpected end of input") {
		t.Fatalf("truncated input must be a syntax error, got %v", err)
	}
	for i, q := range qs {
		if q.Err == nil {
			t.Fatalf("member %d must see the truncation", i)
		}
	}
}

// TestWorkloadAllWritersFailing: every member failing must not stall the
// scheduler.
func TestWorkloadAllWritersFailing(t *testing.T) {
	c := compileWorkload(t, []string{
		`<a>{ for $b in /bib/book return $b/title }</a>`,
		`<b>{ for $b in /bib/book return $b/price }</b>`,
		`<c>{ for $b in /bib/book return $b }</c>`,
	})
	outs := []io.Writer{&failingWriter{n: 16}, &failingWriter{n: 0}, &failingWriter{n: 128}}
	_, qs, err := c.Run(strings.NewReader(bigDoc()), outs)
	if err == nil {
		t.Fatal("every member failing must surface an error")
	}
	for i, q := range qs {
		if q.Err == nil || !strings.Contains(q.Err.Error(), "pipe closed") {
			t.Fatalf("member %d: %v", i, q.Err)
		}
	}
}

// TestWorkloadRecoversAfterFailure: a pooled run state that served a
// failed pass must serve a clean pass afterwards (reset discipline).
func TestWorkloadRecoversAfterFailure(t *testing.T) {
	c := compileWorkload(t, []string{
		`<a>{ for $b in /bib/book return $b/title }</a>`,
		`<b>{ for $b in /bib/book return $b/price }</b>`,
	})
	doc := bigDoc()
	outs := []io.Writer{io.Discard, io.Discard}
	if _, _, err := c.Run(&failingReader{src: strings.NewReader(doc), n: 300}, outs); err == nil {
		t.Fatal("expected a read failure")
	}
	var a, b strings.Builder
	if _, _, err := c.RunChecked(strings.NewReader(doc), []io.Writer{&a, &b}); err != nil {
		t.Fatalf("clean run after failure: %v", err)
	}
	if !strings.Contains(a.String(), "some title") || !strings.Contains(b.String(), "9") {
		t.Fatal("post-failure run produced wrong output")
	}
}

// panicWriter panics on its second Write: the first is the early flush of
// the first result, the second arrives mid-stream once the member's output
// buffer fills.
type panicWriter struct{ writes int }

func (w *panicWriter) Write(p []byte) (int, error) {
	if w.writes++; w.writes == 2 {
		panic("sink exploded")
	}
	return len(p), nil
}

// TestPassWriterPanic: a panicking output writer is the one way a run can
// die rather than fail. For the one-member pass and the three-member pass
// alike, the panic must reach the caller as it is — a run starts no
// goroutine, so none is left behind either — keep the half-run state out
// of the pool, and leave the artifact serving correct runs.
func TestPassWriterPanic(t *testing.T) {
	srcs := []string{
		`<a>{ for $b in /bib/book return $b/title }</a>`,
		`<b>{ for $b in /bib/book return $b/price }</b>`,
		`<c>{ for $b in /bib/book return $b }</c>`,
	}
	doc := `<bib>` + strings.Repeat(`<book><title>some title</title><price>9</price></book>`, 1500) + `</bib>`
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("members=%d", n), func(t *testing.T) {
			p := compileWorkload(t, srcs[:n])
			want := make([]string, n)
			for i, m := range p.Members {
				var out strings.Builder
				if _, err := m.Run(strings.NewReader(doc), &out); err != nil {
					t.Fatal(err)
				}
				want[i] = out.String()
			}

			baseline := runtime.NumGoroutine()
			outs := make([]io.Writer, n)
			for i := range outs {
				outs[i] = io.Discard
			}
			outs[0] = &panicWriter{}
			func() {
				defer func() {
					if r := recover(); r != "sink exploded" {
						t.Fatalf("recovered %v, want the writer's panic on the calling goroutine", r)
					}
					if g := runtime.NumGoroutine(); g != baseline {
						t.Fatalf("%d goroutines after the panic, %d before the run", g, baseline)
					}
				}()
				p.Run(strings.NewReader(doc), outs)
				t.Fatal("Run returned; the writer's panic was swallowed")
			}()
			if rs := p.pool.Get(); rs != nil {
				t.Fatal("the run state of the panicked run went back to the pool")
			}

			check := func() error {
				bufs := make([]*strings.Builder, n)
				for i := range bufs {
					bufs[i] = &strings.Builder{}
				}
				if _, _, err := p.RunChecked(strings.NewReader(doc), toIOWriters(bufs)); err != nil {
					return err
				}
				for i := range bufs {
					if bufs[i].String() != want[i] {
						return fmt.Errorf("member %d output differs from its solo run", i)
					}
				}
				return nil
			}
			for i := 0; i < 20; i++ {
				if err := check(); err != nil {
					t.Fatalf("sequential run %d after the panic: %v", i, err)
				}
			}
			errs := make(chan error, 8)
			for g := 0; g < 8; g++ {
				go func() {
					var err error
					for i := 0; i < 3 && err == nil; i++ {
						err = check()
					}
					errs <- err
				}()
			}
			for g := 0; g < 8; g++ {
				if err := <-errs; err != nil {
					t.Errorf("concurrent run after the panic: %v", err)
				}
			}
		})
	}
}

// goroutineProbe is an output writer that samples the goroutine count at
// its every write.
type goroutineProbe struct{ samples []int }

func (w *goroutineProbe) Write(p []byte) (int, error) {
	w.samples = append(w.samples, runtime.NumGoroutine())
	return len(p), nil
}

// TestPassStartsNoGoroutines: a pass runs its members on the caller's
// goroutine, the solo run and a 64-member fleet pass alike. A member's
// writer, written to mid-run (a 4 KB writer buffer at 64 members, the
// solo 32 KB over a 1 MB copy), counts the goroutines while the members
// are running, and sees the count from before the run.
func TestPassStartsNoGoroutines(t *testing.T) {
	var doc bytes.Buffer
	if _, err := xmark.Generate(&doc, xmark.Config{Factor: xmark.FactorForSize(1 << 20), Seed: 1}); err != nil {
		t.Fatal(err)
	}
	for _, srcs := range [][]string{
		{`<r>{ for $s in /site return $s }</r>`},
		queries.Variants(64),
	} {
		p, err := CompilePass(srcs, Config{Mode: ModeGCX}, 0)
		if err != nil {
			t.Fatal(err)
		}
		probe := &goroutineProbe{}
		outs := make([]io.Writer, len(srcs))
		for i := range outs {
			outs[i] = io.Discard
		}
		outs[len(outs)-1] = probe
		baseline := runtime.NumGoroutine()
		if _, _, err := p.Run(bytes.NewReader(doc.Bytes()), outs); err != nil {
			t.Fatal(err)
		}
		if len(probe.samples) < 2 {
			t.Fatalf("%d members: the writer saw %d writes, want some mid-run", len(srcs), len(probe.samples))
		}
		for _, g := range probe.samples {
			if g != baseline {
				t.Fatalf("%d members: %d goroutines during the run, %d before it (samples %v)", len(srcs), g, baseline, probe.samples)
			}
		}
	}
}
