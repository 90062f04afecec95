package corpus

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// sliceSource serves in-memory documents and records how far dispatch
// has advanced (for window-bound assertions).
type sliceSource struct {
	docs       []string
	next       int
	dispatched atomic.Int64
}

func (s *sliceSource) Next([]byte) (Doc, error) {
	if s.next >= len(s.docs) {
		return Doc{}, io.EOF
	}
	data := s.docs[s.next]
	name := fmt.Sprintf("doc[%d]", s.next)
	s.next++
	s.dispatched.Add(1)
	return Doc{
		Name: name,
		Size: int64(len(data)),
		Open: func() (io.ReadCloser, error) {
			return io.NopCloser(strings.NewReader(data)), nil
		},
	}, nil
}

func (s *sliceSource) Close() error { return nil }

// echoEval copies the input to the first output.
func echoEval(in io.Reader, outs []io.Writer, _ int) (int, error) {
	n, err := io.Copy(outs[0], in)
	return int(n), err
}

func TestRunEmitsInCorpusOrder(t *testing.T) {
	docs := make([]string, 50)
	for i := range docs {
		docs[i] = fmt.Sprintf("<d>%d</d>", i)
	}
	// A jittering evaluator forces out-of-order completion.
	eval := func(in io.Reader, outs []io.Writer, _ int) (int, error) {
		n, err := echoEval(in, outs, 0)
		if err == nil && n%7 == 0 {
			time.Sleep(time.Duration(n%5) * time.Millisecond)
		}
		return n, err
	}
	var got []string
	totals, err := Run(&sliceSource{docs: docs}, Options{Workers: 8}, eval,
		func(r *Result[int]) error {
			if r.Index != len(got) {
				t.Errorf("emitted index %d at position %d", r.Index, len(got))
			}
			got = append(got, r.Outs[0].String())
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if totals.Docs != int64(len(docs)) || totals.Failed != 0 {
		t.Fatalf("totals: %+v", totals)
	}
	for i, d := range docs {
		if got[i] != d {
			t.Errorf("doc %d: got %q, want %q", i, got[i], d)
		}
	}
	if totals.PeakInFlight > totals.Workers {
		t.Errorf("peak in-flight %d exceeds %d workers", totals.PeakInFlight, totals.Workers)
	}
}

func TestRunWindowBoundsDispatch(t *testing.T) {
	docs := make([]string, 40)
	for i := range docs {
		docs[i] = "<d/>"
	}
	src := &sliceSource{docs: docs}
	release := make(chan struct{})
	var once sync.Once
	const workers = 3
	const window = 2 * workers // Run's reorder window
	go func() {
		// Give the dispatcher every chance to overrun while emission is
		// stalled on the first document, then check it could not.
		time.Sleep(100 * time.Millisecond)
		if d := src.dispatched.Load(); d > window {
			t.Errorf("dispatched %d docs with none emitted (window %d)", d, window)
		}
		close(release)
	}()
	var emitted atomic.Int64
	_, err := Run(src, Options{Workers: workers},
		func(in io.Reader, outs []io.Writer, _ int) (int, error) {
			return echoEval(in, outs, 0)
		},
		func(r *Result[int]) error {
			// Stall on the first document: dispatch must stop once the
			// window fills, no matter how fast the workers are.
			once.Do(func() { <-release })
			n := emitted.Add(1)
			if d := src.dispatched.Load(); d > n-1+window {
				t.Errorf("dispatched %d docs with only %d emitted (window %d)", d, n-1, window)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunIsolatesDocFailures(t *testing.T) {
	docs := []string{"<a/>", "FAIL", "<c/>", "FAIL", "<e/>"}
	boom := errors.New("poison")
	eval := func(in io.Reader, outs []io.Writer, _ int) (int, error) {
		data, _ := io.ReadAll(in)
		if string(data) == "FAIL" {
			outs[0].Write([]byte("partial"))
			return 0, boom
		}
		outs[0].Write(data)
		return len(data), nil
	}
	var results []*struct {
		out string
		err error
	}
	totals, err := Run(&sliceSource{docs: docs}, Options{Workers: 4}, eval,
		func(r *Result[int]) error {
			results = append(results, &struct {
				out string
				err error
			}{r.Outs[0].String(), r.Err})
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if totals.Docs != 5 || totals.Failed != 2 {
		t.Fatalf("totals: %+v", totals)
	}
	for i, want := range []struct {
		out string
		bad bool
	}{{"<a/>", false}, {"partial", true}, {"<c/>", false}, {"partial", true}, {"<e/>", false}} {
		if results[i].out != want.out {
			t.Errorf("doc %d output %q, want %q", i, results[i].out, want.out)
		}
		if (results[i].err != nil) != want.bad {
			t.Errorf("doc %d err %v, want failure=%v", i, results[i].err, want.bad)
		}
		if want.bad && !errors.Is(results[i].err, boom) {
			t.Errorf("doc %d err %v, want %v", i, results[i].err, boom)
		}
	}
}

func TestRunEmitErrorCancels(t *testing.T) {
	docs := make([]string, 100)
	for i := range docs {
		docs[i] = "<d/>"
	}
	src := &sliceSource{docs: docs}
	stop := errors.New("client gone")
	var emitted int
	_, err := Run(src, Options{Workers: 4}, echoEval, func(r *Result[int]) error {
		emitted++
		if emitted == 3 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) {
		t.Fatalf("got %v, want emit error", err)
	}
	if d := src.dispatched.Load(); d == int64(len(docs)) {
		t.Errorf("dispatch was not cancelled: all %d docs dispatched", d)
	}
}

func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	docs := make([]string, 100)
	for i := range docs {
		docs[i] = "<d/>"
	}
	var emitted int
	_, err := Run(&sliceSource{docs: docs}, Options{Workers: 2, Context: ctx}, echoEval,
		func(r *Result[int]) error {
			emitted++
			if emitted == 5 {
				cancel()
			}
			return nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestRunEmitErrorWithStalledSource: an emit failure (client gone, pipe
// closed) must return from Run even while the dispatcher is blocked
// inside a stalled source read — the dispatched documents are drained
// and the stuck goroutine is abandoned, not waited for. Its runner is
// not: it holds a slot, so it must not serve another call until the
// dispatcher lets go. A run started while the stall lasts, and one after
// it ended (when the first runner may be back in the pool), must each
// emit their own documents, in order.
func TestRunEmitErrorWithStalledSource(t *testing.T) {
	src := &stalledSource{serve: 3, stalled: make(chan struct{}), stall: make(chan struct{}), resumed: make(chan struct{})}
	stop := errors.New("sink gone")
	type outcome struct {
		totals Totals
		err    error
	}
	res := make(chan outcome, 1)
	go func() {
		totals, err := Run(src, Options{Workers: 2}, echoEval, func(r *Result[int]) error {
			<-src.stalled // the dispatcher is inside the stalled read
			return stop
		})
		res <- outcome{totals, err}
	}()
	select {
	case o := <-res:
		if !errors.Is(o.err, stop) {
			t.Fatalf("got %v, want the emit error", o.err)
		}
	case <-time.After(5 * time.Second):
		close(src.stall)
		t.Fatal("Run hung on a stalled source after the emit error")
	}

	// runs checks a run of the same shape over documents of its own;
	// midway is called as its middle document is emitted.
	runs := func(tag string, midway func()) {
		t.Helper()
		docs := make([]string, 40)
		for i := range docs {
			docs[i] = fmt.Sprintf("<%s>%d</%s>", tag, i, tag)
		}
		var got []string
		totals, err := Run(&sliceSource{docs: docs}, Options{Workers: 2}, echoEval, func(r *Result[int]) error {
			if r.Index == len(docs)/2 {
				midway()
			}
			if r.Err != nil || r.Index != len(got) || r.Name != fmt.Sprintf("doc[%d]", r.Index) {
				t.Errorf("%s: doc %d (%s) emitted at position %d, err %v", tag, r.Index, r.Name, len(got), r.Err)
			}
			got = append(got, r.Outs[0].String())
			return nil
		})
		if err != nil || totals.Docs != int64(len(docs)) || totals.Failed != 0 {
			t.Fatalf("%s: %+v, %v", tag, totals, err)
		}
		for i, d := range docs {
			if got[i] != d {
				t.Errorf("%s: doc %d is %q, want %q", tag, i, got[i], d)
			}
		}
	}
	// The stall ends in the middle of the second run: the first run's
	// dispatcher wakes up and hands its last document to the runner it
	// holds, which must not be the one serving.
	settle := func() { time.Sleep(10 * time.Millisecond) } // let the first runner drain
	runs("during", func() {
		close(src.stall)
		<-src.resumed
		settle()
	})
	runs("after", func() {})
}

// stalledSource serves a few documents, then closes stalled and blocks in
// Next until the test closes stall; the stalled call then serves one more
// document, which the run it belonged to must discard, and resumed is
// closed.
type stalledSource struct {
	serve   int
	next    int
	stalled chan struct{}
	stall   chan struct{}
	resumed chan struct{}
}

func (s *stalledSource) Next([]byte) (Doc, error) {
	if s.next == s.serve {
		close(s.stalled)
		<-s.stall
		defer close(s.resumed)
	} else if s.next > s.serve {
		return Doc{}, io.EOF
	}
	s.next++
	return Doc{
		Name: fmt.Sprintf("doc[%d]", s.next-1),
		Size: 4,
		Open: func() (io.ReadCloser, error) { return io.NopCloser(strings.NewReader("<d/>")), nil },
	}, nil
}

func (s *stalledSource) Close() error { return nil }

// TestRunCancelUnwindsInFlightEvaluations: cancellation must reach a
// document mid-evaluation (its reads fail), not just stop dispatch — a
// slow document would otherwise hold its worker past a server timeout.
func TestRunCancelUnwindsInFlightEvaluations(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 4)
	var once sync.Once
	slowEval := func(in io.Reader, outs []io.Writer, _ int) (int, error) {
		once.Do(func() { close(started) })
		// Trickle-read so every iteration passes through the run's
		// ctx-checking reader.
		buf := make([]byte, 1)
		for {
			_, err := in.Read(buf)
			if err == io.EOF {
				return 0, nil
			}
			if err != nil {
				return 0, err
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	go func() {
		<-started
		cancel()
	}()
	docs := []string{"<d>" + strings.Repeat("x", 10000) + "</d>"}
	var docErr error
	_, err := Run(&sliceSource{docs: docs}, Options{Workers: 1, Context: ctx}, slowEval,
		func(r *Result[int]) error {
			docErr = r.Err
			return nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run error %v, want context.Canceled", err)
	}
	if !errors.Is(docErr, context.Canceled) {
		t.Fatalf("in-flight doc error %v, want a cancellation unwind", docErr)
	}
}

func TestRunSourceErrorIsTerminalAfterDrain(t *testing.T) {
	boom := errors.New("stream broke")
	src := &failingSource{good: 5, err: boom}
	var emitted int
	totals, err := Run(src, Options{Workers: 3}, echoEval, func(r *Result[int]) error {
		if r.Err != nil {
			t.Errorf("doc %d unexpectedly failed: %v", r.Index, r.Err)
		}
		emitted++
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want source error", err)
	}
	if emitted != 5 || totals.Docs != 5 {
		t.Errorf("emitted %d docs before the failure, want 5", emitted)
	}
}

type failingSource struct {
	good int
	next int
	err  error
}

func (f *failingSource) Next([]byte) (Doc, error) {
	if f.next >= f.good {
		return Doc{}, f.err
	}
	f.next++
	return Doc{
		Name: fmt.Sprintf("doc[%d]", f.next-1),
		Size: 4,
		Open: func() (io.ReadCloser, error) { return io.NopCloser(strings.NewReader("<d/>")), nil },
	}, nil
}

func (f *failingSource) Close() error { return nil }

func TestRunDocErrorFromSource(t *testing.T) {
	// A *DocError from the source (oversized tar member, oversized
	// split document) fails its slot but not the corpus.
	src := &docErrSource{}
	var errsAt []int
	totals, err := Run(src, Options{Workers: 2}, echoEval, func(r *Result[int]) error {
		if r.Err != nil {
			errsAt = append(errsAt, r.Index)
			var tooBig *DocTooLargeError
			if !errors.As(r.Err, &tooBig) {
				t.Errorf("doc %d: err %v, want DocTooLargeError", r.Index, r.Err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if totals.Docs != 3 || totals.Failed != 1 {
		t.Fatalf("totals: %+v", totals)
	}
	if len(errsAt) != 1 || errsAt[0] != 1 {
		t.Fatalf("failures at %v, want [1]", errsAt)
	}
}

type docErrSource struct{ next int }

func (d *docErrSource) Next([]byte) (Doc, error) {
	defer func() { d.next++ }()
	switch d.next {
	case 0, 2:
		return Doc{
			Name: fmt.Sprintf("doc[%d]", d.next),
			Size: 4,
			Open: func() (io.ReadCloser, error) { return io.NopCloser(strings.NewReader("<d/>")), nil },
		}, nil
	case 1:
		return Doc{}, &DocError{Name: "doc[1]", Err: &DocTooLargeError{Name: "doc[1]", Limit: 1}}
	default:
		return Doc{}, io.EOF
	}
}

func (d *docErrSource) Close() error { return nil }

// TestConcatNamesCrossBlocks: a split stream's names are rendered a block
// of 128 at a time; across the block edges, and for an oversized document
// (whose name reaches emit through a *DocError), every document is still
// named "doc[N]" and nothing else.
func TestConcatNamesCrossBlocks(t *testing.T) {
	const docs, big = 300, 128
	var stream strings.Builder
	for i := 0; i < docs; i++ {
		if i == big {
			fmt.Fprintf(&stream, "<d>%s</d>", strings.Repeat("x", 100))
			continue
		}
		fmt.Fprintf(&stream, "<d>%d</d>\n", i)
	}
	var names []string
	totals, err := Run(Concat(strings.NewReader(stream.String()), 64), Options{Workers: 2}, echoEval,
		func(r *Result[int]) error {
			names = append(names, r.Name)
			var tooBig *DocTooLargeError
			if (r.Index == big) != errors.As(r.Err, &tooBig) {
				t.Errorf("doc %d: err %v, want a DocTooLargeError only at %d", r.Index, r.Err, big)
			} else if tooBig != nil && tooBig.Name != r.Name {
				t.Errorf("doc %d: the size error names %q, the result %q", r.Index, tooBig.Name, r.Name)
			}
			return nil
		})
	if err != nil || totals.Docs != docs || totals.Failed != 1 {
		t.Fatalf("%+v, %v", totals, err)
	}
	for i, name := range names {
		if want := fmt.Sprintf("doc[%d]", i); name != want {
			t.Errorf("document %d is named %q, want %q", i, name, want)
		}
	}
}
