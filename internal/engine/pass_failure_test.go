package engine

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"
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

// TestWorkloadAllWritersFailing: every member failing must not deadlock
// the baton-passing scheduler.
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
// die rather than fail. For the inline one-member pass and for the
// scheduled three-member pass alike, the panic must reach the CALLER's
// goroutine (the scheduler relays it from the member's), leave no member
// goroutine behind, keep the half-run state out of the pool, and leave
// the artifact serving correct runs.
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
				}()
				p.Run(strings.NewReader(doc), outs)
				t.Fatal("Run returned; the writer's panic was swallowed")
			}()
			// A member goroutine's last act is handing the baton back, so it
			// may still be unwinding when the panic arrives here.
			for i := 0; runtime.NumGoroutine() > baseline; i++ {
				if i == 1000 {
					t.Fatalf("%d goroutines after the panic, %d before the run: member goroutines leaked", runtime.NumGoroutine(), baseline)
				}
				time.Sleep(time.Millisecond)
			}
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
