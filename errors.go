package gcx

// Typed errors of the public API. Service layers (gcxd) classify run
// failures with errors.Is/errors.As against these instead of matching
// message strings.

import (
	"errors"
	"fmt"

	"gcx/internal/corpus"
	"gcx/internal/xqparser"
)

// ErrTooLarge matches (errors.Is) every failure caused by a configured
// size limit: a bulk corpus document over BulkOptions.MaxDocBytes (the
// concrete error remains a *DocTooLargeError), or any future input cap.
// Service layers map it to 413.
var ErrTooLarge = corpus.ErrTooLarge

// ErrCanceled matches (errors.Is) a run abandoned through its context:
// RunContext, or a document a canceled Bulk unwound in flight, wraps the
// context's cancellation into the stream error that unwinds the
// evaluation. The underlying context.Canceled or
// context.DeadlineExceeded cause stays matchable through errors.Is too,
// so callers can distinguish client-gone from timeout.
var ErrCanceled = corpus.ErrCanceled

// QueryError attributes a compilation failure to a query: the registry
// subscription id that submitted it (empty for direct Compile calls) and,
// for syntax errors, the 1-based source position. Match with errors.As.
type QueryError struct {
	// ID is the subscription or registry id of the failing query; empty
	// when the query was compiled directly.
	ID string
	// Line and Col locate a syntax error in the query text (1-based);
	// both are 0 for post-parse failures (normalization, static analysis).
	Line, Col int
	// Err is the underlying compilation error.
	Err error
}

func (e *QueryError) Error() string {
	if e.ID != "" {
		return fmt.Sprintf("gcx: query %q: %v", e.ID, e.Err)
	}
	return fmt.Sprintf("gcx: query: %v", e.Err)
}

func (e *QueryError) Unwrap() error { return e.Err }

// queryError wraps a compilation failure into a *QueryError, lifting the
// parser's source position when there is one. nil passes through.
func queryError(id string, err error) error {
	if err == nil {
		return nil
	}
	qe := &QueryError{ID: id, Err: err}
	var pe *xqparser.Error
	if errors.As(err, &pe) {
		qe.Line, qe.Col = pe.Line, pe.Col
	}
	return qe
}

// requalify re-labels a compile error a CompileCache holds for the caller
// that hit it: a copy (the cached value is shared) carrying id. Any other
// error — a malformed DTD — passes as is.
func requalify(err error, id string) error {
	var qe *QueryError
	if !errors.As(err, &qe) {
		return err
	}
	c := *qe
	c.ID = id
	return &c
}
