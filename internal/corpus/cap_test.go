package corpus

import (
	"errors"
	"io"
	"strings"
	"testing"
)

// TestRunReadTimeCapBackstop: a document whose size is unknown up
// front (Size=-1) still respects MaxDocBytes at read time.
func TestRunReadTimeCapBackstop(t *testing.T) {
	big := "<d>" + strings.Repeat("x", 4096) + "</d>"
	src := &unknownSizeSource{docs: []string{"<d>ok</d>", big, "<d>ok2</d>"}}
	var errsAt []int
	totals, err := Run(src, Options{Workers: 2, MaxDocBytes: 256},
		func(in io.Reader, outs []io.Writer, _ int) (int, error) {
			n, err := io.Copy(outs[0], in)
			return int(n), err
		},
		func(r *Result[int]) error {
			if r.Err != nil {
				errsAt = append(errsAt, r.Index)
				var tooBig *DocTooLargeError
				if !errors.As(r.Err, &tooBig) {
					t.Errorf("doc %d: %v, want DocTooLargeError", r.Index, r.Err)
				}
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if totals.Failed != 1 || len(errsAt) != 1 || errsAt[0] != 1 {
		t.Fatalf("failures at %v (totals %+v), want just doc 1", errsAt, totals)
	}
}

// unknownSizeSource serves docs with Size=-1 (stat failed).
type unknownSizeSource struct {
	docs []string
	next int
}

func (u *unknownSizeSource) Next([]byte) (Doc, error) {
	if u.next >= len(u.docs) {
		return Doc{}, io.EOF
	}
	data := u.docs[u.next]
	u.next++
	return Doc{
		Name: "nosize",
		Size: -1,
		Open: func() (io.ReadCloser, error) { return io.NopCloser(strings.NewReader(data)), nil },
	}, nil
}

func (u *unknownSizeSource) Close() error { return nil }
