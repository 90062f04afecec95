package server

import (
	"net/url"
	"strings"
)

// params is a request's raw URL query, read the way url.ParseQuery reads
// it — pairs split at '&', key and value at the first '=', '+' and
// %-escapes decoded, a pair holding ';' or a bad escape skipped — without
// building url.Values. A key or value with nothing to decode is a
// substring of the raw query, so a request that names its query by id=
// reads its parameters without allocating.
type params string

// next returns the first value of key in p and the part of p after it.
func (p params) next(key string) (value string, rest params, ok bool) {
	for p != "" {
		pair, r, _ := strings.Cut(string(p), "&")
		p = params(r)
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, err := unescape(k); err != nil || k != key {
			continue
		}
		if v, err := unescape(v); err == nil {
			return v, p, true
		}
	}
	return "", "", false
}

// get is url.Values.Get: key's first value, "" if it has none.
func (p params) get(key string) string {
	v, _, _ := p.next(key)
	return v
}

// all appends key's values to dst, in order: url.Values[key].
func (p params) all(key string, dst []string) []string {
	for {
		v, rest, ok := p.next(key)
		if !ok {
			return dst
		}
		dst, p = append(dst, v), rest
	}
}

// unescape is url.QueryUnescape, called only when s has something to
// decode.
func unescape(s string) (string, error) {
	if strings.ContainsAny(s, "%+") {
		return url.QueryUnescape(s)
	}
	return s, nil
}
