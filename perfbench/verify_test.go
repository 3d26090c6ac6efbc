package main

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// corrupt returns b with its last byte before the final newline changed.
func corrupt(b []byte) []byte {
	c := append([]byte(nil), b...)
	c[len(c)-2] ^= 0x01
	return c
}

// TestPaperDigestsRejectCorruption: campaign-paper's check accepts the
// recorded bytes under any build stamp and rejects one changed byte.
func TestPaperDigestsRejectCorruption(t *testing.T) {
	files := map[string]string{
		"e1.json":       "{\n  \"meta\": {\n    \"revision\": \"abc123\",\n    \"go_version\": \"go1.24.0\"\n  },\n  \"rows\": [1, 2, 3]\n}\n",
		"e1.csv":        "# experiment: E1\n# revision: abc123\n# go: go1.24.0\nx,y\n1,2\n",
		"manifest.json": "{\n  \"name\": \"paper\",\n  \"revision\": \"abc123\"\n}\n",
	}
	write := func(dir string, files map[string]string) {
		for name, body := range files {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	dir := t.TempDir()
	write(dir, files)
	want, err := digestDir(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Another commit and toolchain: only the stamps differ.
	restamped := make(map[string]string)
	for name, body := range files {
		body = strings.ReplaceAll(body, "abc123", "unknown")
		restamped[name] = strings.ReplaceAll(body, "go1.24.0", "go1.99.9")
	}
	other := t.TempDir()
	write(other, restamped)
	if err := checkDigests(other, want); err != nil {
		t.Errorf("restamped artifacts rejected: %v", err)
	}

	bad := t.TempDir()
	write(bad, files)
	b, _ := os.ReadFile(filepath.Join(bad, "e1.csv"))
	os.WriteFile(filepath.Join(bad, "e1.csv"), corrupt(b), 0o644)
	if err := checkDigests(bad, want); err == nil || !strings.Contains(err.Error(), "e1.csv") {
		t.Errorf("corrupted e1.csv: got %v, want an error naming it", err)
	}
	os.Remove(filepath.Join(bad, "manifest.json"))
	if err := checkDigests(bad, want); err == nil || !strings.Contains(err.Error(), "manifest.json") {
		t.Errorf("missing manifest: got %v, want an error naming it", err)
	}
}

// artifactServer serves fixed artifact bytes for any job.
func artifactServer(t *testing.T, files map[string][]byte) *httptest.Server {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := r.URL.Path[strings.LastIndex(r.URL.Path, "/")+1:]
		b, ok := files[name]
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Write(b)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestDistCheckRejectsCorruption: dist-campaign's check compares the
// coordinator's merged artifacts with the local rendering.
func TestDistCheckRejectsCorruption(t *testing.T) {
	ref := map[string][]byte{"e3.json": []byte(`{"rows":[0.25,0.5]}`), "e3.csv": []byte("x\n0.25\n"), "e3.txt": []byte("E3\n")}
	e := &env{ctx: context.Background()}
	good := artifactServer(t, ref)
	if err := checkMerged(e, good.URL, good.Client(), "job-1", ref); err != nil {
		t.Fatalf("identical artifacts rejected: %v", err)
	}
	bad := artifactServer(t, map[string][]byte{"e3.json": ref["e3.json"], "e3.csv": corrupt(ref["e3.csv"])})
	if err := checkMerged(e, bad.URL, bad.Client(), "job-1", ref); err == nil || !strings.Contains(err.Error(), "e3.csv") {
		t.Errorf("corrupted e3.csv: got %v, want an error naming it", err)
	}
}

// TestServeCheckRejectsCorruption: serve-mixed's artifact reads compare
// the fetched bytes with the reference rendered before the timed phase.
func TestServeCheckRejectsCorruption(t *testing.T) {
	ref := map[string][]byte{"run.csv": []byte("cores,infection\n64,0.25\n")}
	run := func(files map[string][]byte) error {
		srv := artifactServer(t, files)
		s := &serveRun{
			e:        &env{ctx: context.Background()},
			srv:      &served{base: srv.URL},
			clients:  []*http.Client{srv.Client()},
			fixtures: []fixture{{id: "job-1", refs: ref, names: []string{"run.csv"}}},
		}
		return s.exec(context.Background(), serveOp{kind: kindArtifact, artifact: "run.csv"}, &opResult{})
	}
	if err := run(ref); err != nil {
		t.Fatalf("identical artifact rejected: %v", err)
	}
	if err := run(map[string][]byte{"run.csv": corrupt(ref["run.csv"])}); err == nil {
		t.Error("corrupted run.csv accepted")
	}
}

// TestServeWriteCheckRejectsCorruption: serve-mixed's write check, run
// after the timed phases on the writes of both phases, compares a job's
// artifacts with a reference rendered outside the service.
func TestServeWriteCheckRejectsCorruption(t *testing.T) {
	op := serveOp{kind: kindSim, seed: 7}
	ref, err := op.reference(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	run := func(files map[string][]byte) error {
		srv := artifactServer(t, files)
		s := &serveRun{
			e:       &env{ctx: context.Background(), nproc: 2},
			srv:     &served{base: srv.URL},
			clients: []*http.Client{srv.Client()},
		}
		// The read is never checked; the write without a job is skipped.
		ops := []serveOp{op, {kind: kindHit}, op}
		return errors.Join(s.verifyWrites(ops, []string{"job-1", "", ""})...)
	}
	if err := run(ref); err != nil {
		t.Fatalf("identical artifacts rejected: %v", err)
	}
	bad := map[string][]byte{"run.json": ref["run.json"], "run.csv": corrupt(ref["run.csv"])}
	if err := run(bad); err == nil || !errors.Is(err, errMismatch) || !strings.Contains(err.Error(), "run.csv") {
		t.Errorf("corrupted run.csv: got %v, want a mismatch naming it", err)
	}
}
