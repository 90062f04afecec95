package server

import (
	"math/rand/v2"
	"net/url"
	"slices"
	"strings"
	"testing"
)

// TestQueryParamsMatchURLValues: on edge and random raw queries the
// raw-query reader agrees with url.ParseQuery, for the first value of
// every parameter a handler reads and for every id= and q= in order.
func TestQueryParamsMatchURLValues(t *testing.T) {
	raws := []string{
		"", "&", "&&", "=", "id", "id=", "id=&id=", "id=Q1", "id=Q1&id=Q6", "q=a+b",
		"q=%3Cr%3E%7B+%2Fa+%7D%3C%2Fr%3E", "%69d=Q1", "i%64=Q1&id=Q6", "id=%", "id=%zz&id=Q6",
		"id=%4", "%zz=1&id=Q6", "id=Q1;id=Q6", "id=Q1&a;b=c&id=Q6", ";&id=Q1", "id==Q1",
		"id=a=b", "+id=Q1", "id+=Q1", "id%20=Q1", "j=4&j=8", "j=%2B4", "format=tar",
		"format=ta%72", "FORMAT=tar", "q=&id=Q1", "id=%C3%A9", "id=%e9", "q=%00",
	}
	pieces := []string{"id", "q", "j", "format", "%69d", "i%64", "Q1", "a", "=", "=", "&", "&",
		"+", "%", "%2", "%zz", "%3D", "%26", "%2B", ";", " ", "%C3%A9", "=tar"}
	rng := rand.New(rand.NewPCG(1, 2))
	for range 5000 {
		var b strings.Builder
		for range rng.IntN(10) {
			b.WriteString(pieces[rng.IntN(len(pieces))])
		}
		raws = append(raws, b.String())
	}
	for _, raw := range raws {
		want, _ := url.ParseQuery(raw) // a bad pair is skipped, as params skips it
		p := params(raw)
		for _, key := range []string{"q", "id", "j", "format"} {
			if got := p.get(key); got != want.Get(key) {
				t.Errorf("%q: get(%q) = %q, url.Values %q", raw, key, got, want.Get(key))
			}
		}
		for _, key := range []string{"id", "q"} {
			if got := p.all(key, nil); !slices.Equal(got, want[key]) {
				t.Errorf("%q: all(%q) = %q, url.Values %q", raw, key, got, want[key])
			}
		}
	}
}
