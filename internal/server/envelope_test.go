package server

import (
	"bytes"
	"errors"
	"io"
	"mime/multipart"
	"net/textproto"
	"testing"
)

// TestPartFramingMatchesMultipart: for header values without CR or LF,
// the envelope writes the bytes mime/multipart.Writer writes for the
// same boundary — delimiters, header fields in key order, Gcx-Error among
// them, and the closing delimiter — for no part, one part and several,
// and draws a boundary multipart.Writer accepts.
func TestPartFramingMatchesMultipart(t *testing.T) {
	xml, json := "application/xml; charset=utf-8", "application/json"
	parts := []struct {
		contentType string
		err         error
		kv          []string
		body        string
	}{
		{xml, nil, []string{"Gcx-Doc-Index", "0", "Gcx-Doc-Name", "a.xml", "Gcx-Stats", `{"tokens_read":3}`}, "<r>x</r>"},
		{xml, errors.New("unexpected end of input"), []string{"Gcx-Doc-Index", "1", "Gcx-Doc-Name", "b/c.xml", "Gcx-Stats", "{}"}, "<r>"},
		{xml, nil, []string{"Gcx-Query-Index", "0", "Gcx-Query-Id", "Q1"}, ""},
		{xml, nil, []string{"Gcx-Part", "result"}, "<a/>"},
		{json, errors.New("query 0: disk on fire"), []string{"Gcx-Part", "stats"}, "{}\n"},
		{json, nil, nil, "[]"},
	}
	for n := 0; n <= len(parts); n++ {
		var e envelope
		e.open()
		var got, want bytes.Buffer
		mw := multipart.NewWriter(&want)
		if err := mw.SetBoundary(e.boundary()); err != nil {
			t.Fatalf("drawn boundary %q: %v", e.boundary(), err)
		}
		if e.contentType != "multipart/mixed; boundary="+mw.Boundary() {
			t.Fatalf("content type %q for boundary %q", e.contentType, mw.Boundary())
		}
		for _, p := range parts[:n] {
			got.Write(e.header(p.contentType, p.err, p.kv))
			got.WriteString(p.body)
			h := textproto.MIMEHeader{}
			h.Set("Content-Type", p.contentType)
			for i := 0; i+1 < len(p.kv); i += 2 {
				h.Set(p.kv[i], p.kv[i+1])
			}
			if p.err != nil {
				h.Set("Gcx-Error", p.err.Error())
			}
			w, err := mw.CreatePart(h)
			if err != nil {
				t.Fatal(err)
			}
			io.WriteString(w, p.body)
		}
		got.Write(e.close())
		if err := mw.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%d parts:\n got %q\nwant %q", n, got.Bytes(), want.Bytes())
		}
	}
}
