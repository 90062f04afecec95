package corpus

import (
	"archive/tar"
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTarHugeClaimedSize: a crafted header claiming an absurd member
// size must fail with a clean read error, not an allocation crash —
// hdr.Size is untrusted input.
func TestTarHugeClaimedSize(t *testing.T) {
	var buf bytes.Buffer
	tw := tar.NewWriter(&buf)
	if err := tw.WriteHeader(&tar.Header{Name: "liar.xml", Mode: 0o644, Size: 1 << 50}); err != nil {
		t.Fatal(err)
	}
	// Deliberately no body and no Close: the archive ends mid-member.
	src := Tar(bytes.NewReader(buf.Bytes()), 0)
	_, err := src.Next(nil)
	if err == nil || err == io.EOF {
		t.Fatalf("got %v, want a read error for the lying member", err)
	}
	if !strings.Contains(err.Error(), "liar.xml") {
		t.Errorf("error does not name the member: %v", err)
	}
}

// TestTarMemberLargerThanHint: a member bigger than the pre-allocation
// hint must still be read whole through the growth loop.
func TestTarMemberLargerThanHint(t *testing.T) {
	payload := bytes.Repeat([]byte("<x>gcx</x>"), (maxTarPrealloc/10)+1000)
	var buf bytes.Buffer
	tw := tar.NewWriter(&buf)
	if err := tw.WriteHeader(&tar.Header{Name: "big.xml", Mode: 0o644, Size: int64(len(payload))}); err != nil {
		t.Fatal(err)
	}
	if _, err := tw.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	src := Tar(bytes.NewReader(buf.Bytes()), 0)
	doc, err := src.Next(nil)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Open != nil || !bytes.Equal(doc.Data, payload) {
		t.Fatalf("member round-trip: %d bytes (want %d), Open set: %v", len(doc.Data), len(payload), doc.Open != nil)
	}
}

// TestFilesGlobFallsBackToLiteral: a file whose NAME contains glob
// metacharacters stays reachable (shell nullglob-off semantics).
func TestFilesGlobFallsBackToLiteral(t *testing.T) {
	dir := t.TempDir()
	weird := filepath.Join(dir, "doc[1].xml")
	if err := os.WriteFile(weird, []byte("<a/>"), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := Files(weird)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := src.Next(nil)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := doc.Open()
	if err != nil {
		t.Fatalf("literal fallback did not reach the file: %v", err)
	}
	data, _ := io.ReadAll(rc)
	rc.Close()
	if string(data) != "<a/>" {
		t.Fatalf("got %q", data)
	}
}
