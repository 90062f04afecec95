package gcx

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"
	"time"
)

// The error vocabulary exists so callers classify failures with
// errors.Is/As instead of matching message text. These tests pin the
// three sentinels a serving tier maps to status codes.

func TestErrTooLargeFromBulk(t *testing.T) {
	small := `<bib><book/></bib>`
	big := `<bib>` + strings.Repeat(`<book><title>padding padding padding</title></book>`, 64) + `</bib>`
	stream := small + "\n" + big + "\n" + small
	eng := MustCompile(`<r>{ /bib/book }</r>`)
	var tooLarge, ok int
	_, err := eng.Bulk(CorpusConcat(bytes.NewReader([]byte(stream))), BulkOptions{MaxDocBytes: 256}, func(d BulkDoc) error {
		switch {
		case d.Err == nil:
			ok++
		case errors.Is(d.Err, ErrTooLarge):
			tooLarge++
		default:
			t.Errorf("doc %d: unexpected error class: %v", d.Index, d.Err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if tooLarge != 1 || ok != 2 {
		t.Fatalf("tooLarge=%d ok=%d, want 1 oversized and 2 clean docs", tooLarge, ok)
	}
}

func TestErrCanceledWrapsContextCause(t *testing.T) {
	eng := MustCompile(`<r>{ /bib/book/title }</r>`)

	t.Run("canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := eng.RunContext(ctx, strings.NewReader(bibDoc), io.Discard)
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want the context.Canceled cause preserved", err)
		}
	})
	t.Run("deadline", func(t *testing.T) {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		_, err := eng.RunContext(ctx, strings.NewReader(bibDoc), io.Discard)
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
		// Deadline must remain distinguishable from plain cancellation —
		// the server maps it to 408, not 400.
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want the DeadlineExceeded cause preserved", err)
		}
	})
}

// TestBulkCancellationMatchesErrCanceled: a document a canceled Bulk
// unwinds in flight fails the way a canceled RunContext does — its error
// matches ErrCanceled and keeps the context's cause. One worker evaluates
// three 1 MB documents; emitting the first cancels the run while the
// second is being read. A scheduler may let the second finish first, so
// the scenario is repeated until a document is caught in flight.
func TestBulkCancellationMatchesErrCanceled(t *testing.T) {
	doc := `<bib>` + strings.Repeat(`<book><title>padding padding padding</title></book>`, 20000) + `</bib>`
	stream := strings.Repeat(doc+"\n", 3)
	eng := MustCompile(`<r>{ for $b in /bib/book return $b/title }</r>`)
	for attempt := 0; attempt < 10; attempt++ {
		ctx, cancel := context.WithCancel(context.Background())
		caught := 0
		_, err := eng.Bulk(CorpusConcat(strings.NewReader(stream)), BulkOptions{Workers: 1, Context: ctx}, func(d BulkDoc) error {
			switch {
			case d.Index == 0:
				cancel()
			case d.Err == nil:
			case errors.Is(d.Err, ErrCanceled) && errors.Is(d.Err, context.Canceled):
				caught++
			default:
				t.Errorf("doc %d: %v, want an error matching ErrCanceled and context.Canceled", d.Index, d.Err)
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Bulk returned %v, want context.Canceled", err)
		}
		if t.Failed() || caught > 0 {
			return
		}
	}
	t.Fatal("no document was caught in flight in 10 attempts")
}

func TestQueryErrorCarriesPosition(t *testing.T) {
	_, err := Compile("<r>{ for $x in\n  /bib/book return }</r>")
	if err == nil {
		t.Fatal("want compile error")
	}
	var qe *QueryError
	if !errors.As(err, &qe) {
		t.Fatalf("err = %T %v, want *QueryError", err, err)
	}
	if qe.Line < 1 || qe.Col < 1 {
		t.Fatalf("position not lifted: line=%d col=%d", qe.Line, qe.Col)
	}
	if qe.ID != "" {
		t.Fatalf("solo Compile should have no query id, got %q", qe.ID)
	}
	if qe.Unwrap() == nil {
		t.Fatal("QueryError must unwrap to the parser error")
	}
}
