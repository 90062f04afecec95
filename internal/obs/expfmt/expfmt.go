// Package expfmt is a strict parser for the Prometheus text exposition
// format (version 0.0.4) — strict on purpose: gcxd's /metrics endpoint is
// scraped by CI and dashboards, and a malformed line should fail the test
// suite, not be shrugged off by a lenient scraper. Only tests import it:
// no binary links it. Beyond line syntax the parser enforces the
// conventions gcxd commits to:
//
//   - every sample belongs to a family that declared # HELP and # TYPE
//     before its first sample;
//   - the exposition ends with a newline;
//   - no duplicate series (same name and label set twice);
//   - histogram families carry _bucket/_sum/_count series, the _bucket
//     series have an `le` label ending in "+Inf", bucket counts are
//     cumulative, and the +Inf bucket equals _count.
package expfmt

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Sample is one exposed series value.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Label returns the value of the named label ("" if absent).
func (s Sample) Label(name string) string { return s.Labels[name] }

// Family is one metric family: its HELP/TYPE metadata and samples in
// exposition order. For histograms the family is keyed by the base name
// and holds the _bucket/_sum/_count samples.
type Family struct {
	Name    string
	Help    string
	Type    string
	Samples []Sample
}

// Exposition is a parsed scrape.
type Exposition struct {
	Families map[string]*Family
	// Order lists family names in first-appearance order.
	Order []string
}

// Family returns the named family, or nil.
func (e *Exposition) Family(name string) *Family {
	if e == nil {
		return nil
	}
	return e.Families[name]
}

// ParseExposition parses and validates a Prometheus text-format scrape.
func ParseExposition(data []byte) (*Exposition, error) {
	text := string(data)
	if text == "" {
		return nil, fmt.Errorf("expfmt: empty exposition")
	}
	if !strings.HasSuffix(text, "\n") {
		return nil, fmt.Errorf("expfmt: exposition does not end with a newline")
	}
	exp := &Exposition{Families: make(map[string]*Family)}
	seen := make(map[string]bool) // series dedup: name + canonical labels
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	for ln, line := range lines {
		lineNo := ln + 1
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := exp.parseMeta(line, lineNo); err != nil {
				return nil, err
			}
			continue
		}
		if err := exp.parseSample(line, lineNo, seen); err != nil {
			return nil, err
		}
	}
	for _, name := range exp.Order {
		f := exp.Families[name]
		if f.Help == "" {
			return nil, fmt.Errorf("expfmt: family %s has no # HELP line", name)
		}
		if f.Type == "" {
			return nil, fmt.Errorf("expfmt: family %s has no # TYPE line", name)
		}
		if f.Type == "histogram" {
			if err := validateHistogram(f); err != nil {
				return nil, err
			}
		}
	}
	return exp, nil
}

func (e *Exposition) family(name string) *Family {
	f := e.Families[name]
	if f == nil {
		f = &Family{Name: name}
		e.Families[name] = f
		e.Order = append(e.Order, name)
	}
	return f
}

// parseMeta handles "# HELP name text" / "# TYPE name kind" comment lines.
// Other comments are permitted by the format but gcxd never emits them, so
// they are rejected here.
func (e *Exposition) parseMeta(line string, lineNo int) error {
	rest, ok := strings.CutPrefix(line, "# ")
	if !ok {
		return fmt.Errorf("expfmt: line %d: comment is not a HELP/TYPE line: %q", lineNo, line)
	}
	kind, rest, ok := strings.Cut(rest, " ")
	if !ok || (kind != "HELP" && kind != "TYPE") {
		return fmt.Errorf("expfmt: line %d: expected HELP or TYPE, got %q", lineNo, line)
	}
	name, text, ok := strings.Cut(rest, " ")
	if !ok || text == "" {
		return fmt.Errorf("expfmt: line %d: %s line missing text: %q", lineNo, kind, line)
	}
	if !validMetricName(name) {
		return fmt.Errorf("expfmt: line %d: invalid metric name %q", lineNo, name)
	}
	f := e.family(name)
	switch kind {
	case "HELP":
		if f.Help != "" {
			return fmt.Errorf("expfmt: line %d: duplicate HELP for %s", lineNo, name)
		}
		f.Help = text
	case "TYPE":
		if f.Type != "" {
			return fmt.Errorf("expfmt: line %d: duplicate TYPE for %s", lineNo, name)
		}
		if len(f.Samples) > 0 {
			return fmt.Errorf("expfmt: line %d: TYPE for %s after its samples", lineNo, name)
		}
		switch text {
		case "counter", "gauge", "histogram", "summary", "untyped":
			f.Type = text
		default:
			return fmt.Errorf("expfmt: line %d: unknown type %q for %s", lineNo, text, name)
		}
	}
	return nil
}

func (e *Exposition) parseSample(line string, lineNo int, seen map[string]bool) error {
	name, rest := splitMetricName(line)
	if name == "" {
		return fmt.Errorf("expfmt: line %d: invalid metric name in %q", lineNo, line)
	}
	labels := map[string]string{}
	var canon []string
	if strings.HasPrefix(rest, "{") {
		body, after, ok := cutLabelBlock(rest)
		if !ok {
			return fmt.Errorf("expfmt: line %d: unterminated label block in %q", lineNo, line)
		}
		rest = after
		var err error
		labels, canon, err = parseLabels(body)
		if err != nil {
			return fmt.Errorf("expfmt: line %d: %w", lineNo, err)
		}
	}
	rest = strings.TrimPrefix(rest, " ")
	if rest == "" || strings.ContainsAny(rest, " \t") {
		return fmt.Errorf("expfmt: line %d: expected exactly one value after series in %q", lineNo, line)
	}
	val, err := parseValue(rest)
	if err != nil {
		return fmt.Errorf("expfmt: line %d: bad value %q: %w", lineNo, rest, err)
	}
	// Family resolution: an exact-name family wins (a plain counter may
	// legitimately end in _sum, like gcxd_buffer_peak_nodes_sum); only
	// otherwise does a histogram suffix fold the sample into its base
	// family.
	f := e.Families[name]
	if f == nil {
		if base := baseFamilyName(name); base != name {
			if bf := e.Families[base]; bf != nil && bf.Type == "histogram" {
				f = bf
			}
		}
	}
	if f == nil || f.Type == "" || f.Help == "" {
		return fmt.Errorf("expfmt: line %d: sample %s before # HELP and # TYPE for its family", lineNo, name)
	}
	key := name + "{" + strings.Join(canon, ",") + "}"
	if seen[key] {
		return fmt.Errorf("expfmt: line %d: duplicate series %s", lineNo, key)
	}
	seen[key] = true
	f.Samples = append(f.Samples, Sample{Name: name, Labels: labels, Value: val})
	return nil
}

func splitMetricName(line string) (name, rest string) {
	i := 0
	for i < len(line) {
		c := line[i]
		if c == '{' || c == ' ' {
			break
		}
		i++
	}
	name = line[:i]
	if !validMetricName(name) {
		return "", line
	}
	return name, line[i:]
}

// cutLabelBlock splits "{...}rest" respecting quoted label values.
func cutLabelBlock(s string) (body, rest string, ok bool) {
	inQuote := false
	for i := 1; i < len(s); i++ {
		switch {
		case inQuote && s[i] == '\\':
			i++ // skip escaped char
		case s[i] == '"':
			inQuote = !inQuote
		case !inQuote && s[i] == '}':
			return s[1:i], s[i+1:], true
		}
	}
	return "", "", false
}

func parseLabels(body string) (map[string]string, []string, error) {
	labels := map[string]string{}
	var canon []string
	for len(body) > 0 {
		eq := strings.IndexByte(body, '=')
		if eq < 0 {
			return nil, nil, fmt.Errorf("label pair missing '=' in %q", body)
		}
		name := body[:eq]
		if !validLabelName(name) {
			return nil, nil, fmt.Errorf("invalid label name %q", name)
		}
		body = body[eq+1:]
		if !strings.HasPrefix(body, `"`) {
			return nil, nil, fmt.Errorf("label %s value is not quoted", name)
		}
		val, rest, err := cutQuoted(body)
		if err != nil {
			return nil, nil, fmt.Errorf("label %s: %w", name, err)
		}
		if _, dup := labels[name]; dup {
			return nil, nil, fmt.Errorf("duplicate label %s", name)
		}
		labels[name] = val
		body = rest
		if strings.HasPrefix(body, ",") {
			body = body[1:]
			if body == "" {
				break // trailing comma is tolerated by the format
			}
		} else if body != "" {
			return nil, nil, fmt.Errorf("expected ',' between labels, got %q", body)
		}
	}
	for k, v := range labels {
		canon = append(canon, k+"="+v)
	}
	sort.Strings(canon)
	return labels, canon, nil
}

// cutQuoted parses a leading quoted string with \\, \", \n escapes.
func cutQuoted(s string) (val, rest string, err error) {
	var b strings.Builder
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if i+1 >= len(s) {
				return "", "", fmt.Errorf("dangling escape")
			}
			i++
			switch s[i] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", "", fmt.Errorf("invalid escape \\%c", s[i])
			}
		case '"':
			return b.String(), s[i+1:], nil
		default:
			b.WriteByte(s[i])
		}
	}
	return "", "", fmt.Errorf("unterminated quoted string")
}

func parseValue(s string) (float64, error) {
	// strconv accepts the exposition's value grammar including +Inf, -Inf,
	// and NaN (any case).
	return strconv.ParseFloat(s, 64)
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// histogramSuffixes are the series suffixes owned by a histogram family.
var histogramSuffixes = []string{"_bucket", "_sum", "_count"}

// baseFamilyName maps a sample name to its family name: for histogram
// suffixes the base name, otherwise the name itself. The caller resolves
// which interpretation applies (a declared family wins).
func baseFamilyName(name string) string {
	for _, suf := range histogramSuffixes {
		if base, ok := strings.CutSuffix(name, suf); ok && base != "" {
			return base
		}
	}
	return name
}

// validateHistogram enforces the histogram family shape on every label
// combination (excluding le): cumulative buckets, a final +Inf bucket, and
// matching _count.
func validateHistogram(f *Family) error {
	type series struct {
		buckets []Sample
		sum     *Sample
		count   *Sample
	}
	groups := map[string]*series{}
	order := []string{}
	group := func(s Sample) *series {
		var parts []string
		for k, v := range s.Labels {
			if k == "le" {
				continue
			}
			parts = append(parts, k+"="+v)
		}
		sort.Strings(parts)
		key := strings.Join(parts, ",")
		g := groups[key]
		if g == nil {
			g = &series{}
			groups[key] = g
			order = append(order, key)
		}
		return g
	}
	for i := range f.Samples {
		s := f.Samples[i]
		g := group(s)
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			if s.Label("le") == "" {
				return fmt.Errorf("expfmt: %s bucket without le label", f.Name)
			}
			g.buckets = append(g.buckets, s)
		case strings.HasSuffix(s.Name, "_sum"):
			g.sum = &f.Samples[i]
		case strings.HasSuffix(s.Name, "_count"):
			g.count = &f.Samples[i]
		default:
			return fmt.Errorf("expfmt: histogram %s has stray sample %s", f.Name, s.Name)
		}
	}
	for _, key := range order {
		g := groups[key]
		if len(g.buckets) == 0 || g.sum == nil || g.count == nil {
			return fmt.Errorf("expfmt: histogram %s{%s} missing _bucket/_sum/_count", f.Name, key)
		}
		prevLe := float64(0)
		prevCum := float64(0)
		for i, b := range g.buckets {
			le, err := parseValue(b.Label("le"))
			if err != nil {
				return fmt.Errorf("expfmt: histogram %s{%s}: bad le %q", f.Name, key, b.Label("le"))
			}
			if i > 0 && le <= prevLe {
				return fmt.Errorf("expfmt: histogram %s{%s}: le bounds not increasing", f.Name, key)
			}
			if b.Value < prevCum {
				return fmt.Errorf("expfmt: histogram %s{%s}: bucket counts not cumulative at le=%q", f.Name, key, b.Label("le"))
			}
			prevLe, prevCum = le, b.Value
		}
		last := g.buckets[len(g.buckets)-1]
		if last.Label("le") != "+Inf" {
			return fmt.Errorf("expfmt: histogram %s{%s}: last bucket is le=%q, want +Inf", f.Name, key, last.Label("le"))
		}
		if last.Value != g.count.Value {
			return fmt.Errorf("expfmt: histogram %s{%s}: +Inf bucket %v != _count %v", f.Name, key, last.Value, g.count.Value)
		}
	}
	return nil
}
