package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"gcx/internal/obs/expfmt"
)

// TestOpsEndToEnd is the ops smoke test: it builds the real gcxd binary,
// boots it on an ephemeral port, and probes every operational endpoint —
// liveness, readiness (including the degraded-registry flip), build
// info, a short CPU profile, and a live /metrics scrape through the
// strict exposition parser.
func TestOpsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the gcxd binary")
	}
	bin := filepath.Join(t.TempDir(), "gcxd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	reg := t.TempDir()
	if err := os.WriteFile(filepath.Join(reg, "q1.xq"), []byte(
		`<hits>{ for $p in /site/people/person return $p/name }</hits>`), 0o644); err != nil {
		t.Fatal(err)
	}

	t.Run("healthy", func(t *testing.T) {
		base, stop := bootGcxd(t, bin, "-listen", "127.0.0.1:0", "-queries", reg, "-pprof", "-timeout", "30s")
		defer stop()

		expectStatus(t, base+"/healthz", http.StatusOK)
		expectStatus(t, base+"/readyz", http.StatusOK)

		var bi struct {
			GoVersion string `json:"go_version"`
			Module    string `json:"module"`
		}
		getJSON(t, base+"/buildinfo", &bi)
		if bi.GoVersion == "" || bi.Module == "" {
			t.Fatalf("buildinfo incomplete: %+v", bi)
		}

		// Serve one registered query so the scrape shows real traffic.
		doc := []byte(`<site><people><person><name>n</name></person></people></site>`)
		resp, err := http.Post(base+"/query?id=q1", "application/xml", bytes.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "<name>") {
			t.Fatalf("query: status %d body %q", resp.StatusCode, body)
		}

		// A one-second CPU profile must come back as a non-empty pprof
		// payload (gzip magic or legacy text — just prove the handler runs).
		profResp, err := http.Get(base + "/debug/pprof/profile?seconds=1")
		if err != nil {
			t.Fatal(err)
		}
		prof, _ := io.ReadAll(profResp.Body)
		profResp.Body.Close()
		if profResp.StatusCode != http.StatusOK || len(prof) == 0 {
			t.Fatalf("pprof profile: status %d, %d bytes", profResp.StatusCode, len(prof))
		}

		mResp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		scrapeData, _ := io.ReadAll(mResp.Body)
		mResp.Body.Close()
		exp, err := expfmt.ParseExposition(scrapeData)
		if err != nil {
			t.Fatalf("live /metrics violates the exposition format: %v", err)
		}
		ttfr := exp.Family("gcxd_ttfr_seconds")
		if ttfr == nil {
			t.Fatal("live scrape lacks gcxd_ttfr_seconds")
		}
		found := false
		for _, s := range ttfr.Samples {
			if s.Name == "gcxd_ttfr_seconds_count" && s.Label("query") == "q1" && s.Value >= 1 {
				found = true
			}
		}
		if !found {
			t.Fatal("gcxd_ttfr_seconds_count{query=\"q1\"} not >= 1 after serving q1")
		}
	})

	t.Run("degraded registry", func(t *testing.T) {
		missing := filepath.Join(t.TempDir(), "nope")
		base, stop := bootGcxd(t, bin, "-listen", "127.0.0.1:0", "-queries", missing)
		defer stop()

		expectStatus(t, base+"/healthz", http.StatusOK) // alive...
		resp, err := http.Get(base + "/readyz")         // ...but not ready
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "registry") {
			t.Fatalf("degraded boot: /readyz %d %q, want 503 naming the registry", resp.StatusCode, body)
		}
	})
}

var listenLine = regexp.MustCompile(`gcxd: listening on ([0-9.:\[\]]+)`)

// bootGcxd starts the binary and parses the resolved listen address from
// its log line.
func bootGcxd(t *testing.T, bin string, args ...string) (base string, stop func()) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := listenLine.FindStringSubmatch(sc.Text()); m != nil {
				addr <- m[1]
			}
		}
	}()
	stop = func() {
		cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			cmd.Process.Kill()
			<-done
		}
	}
	select {
	case a := <-addr:
		return "http://" + a, stop
	case <-time.After(15 * time.Second):
		stop()
		t.Fatal("gcxd never logged its listen address")
		return "", nil
	}
}

func expectStatus(t *testing.T, url string, want int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != want {
		t.Fatalf("%s: status %d (%s), want %d", url, resp.StatusCode, body, want)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("%s: %v", url, err)
	}
}

// TestSizeFlagOutOfRangeIsStartupError: a size that does not fit an int64
// used to parse to a negative number, which the server reads as "no
// limit" — `-max-body 16000000000GB` started a daemon with no body limit
// at all. It must refuse to start instead.
func TestSizeFlagOutOfRangeIsStartupError(t *testing.T) {
	for _, c := range []config{
		{mode: "gcx", maxBody: "16000000000GB", maxDoc: "64MB"},
		{mode: "gcx", maxBody: "256MB", maxDoc: "inf"},
	} {
		err := run(c)
		if err == nil || !strings.Contains(err.Error(), "bad size") {
			t.Errorf("run(-max-body %s -max-doc %s) = %v, want a bad-size error before listening", c.maxBody, c.maxDoc, err)
		}
	}
}

// TestDaemonLinksNoBenchmarkCode: gcxd and gcx need a size parser, not
// the Table 1 harness, the benchmark query catalog or the XMark generator
// (gcx.XMarkDTD comes from internal/xmarkdtd, which holds only the
// schema), nor the exposition parser only tests use.
func TestDaemonLinksNoBenchmarkCode(t *testing.T) {
	for _, bin := range []string{".", "../gcx"} {
		out, err := exec.Command("go", "list", "-deps", bin).Output()
		if err != nil {
			t.Fatalf("go list -deps %s: %v", bin, err)
		}
		for _, pkg := range strings.Fields(string(out)) {
			switch {
			case !strings.HasPrefix(pkg, "gcx/"):
			case strings.Contains(pkg, "bench"), pkg == "gcx/internal/queries", pkg == "gcx/internal/xmark", pkg == "gcx/internal/obs/expfmt":
				t.Errorf("%s links %s", bin, pkg)
			}
		}
	}
}
