package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"repro/internal/campaign"
	"repro/internal/results"
)

// paperDigests records the sha256 of every artifact `specs/paper.json`
// produces, after normalize. Regenerate with `perfbench digests` only
// when a change means to alter the paper's results, and say so.
//
//go:embed paper.sha256
var paperDigests string

// Build stamps that differ between commits and toolchains without the
// results changing: the VCS revision and the Go version, in the JSON and
// CSV renderings and in the manifest.
var (
	jsonRevision = regexp.MustCompile(`"revision": "[^"]*"`)
	jsonGo       = regexp.MustCompile(`"go_version": "[^"]*"`)
	csvRevision  = regexp.MustCompile(`(?m)^# revision: .*$`)
	csvGo        = regexp.MustCompile(`(?m)^# go: .*$`)
)

// normalize replaces the build stamps with placeholders.
func normalize(b []byte) []byte {
	b = jsonRevision.ReplaceAll(b, []byte(`"revision": "<revision>"`))
	b = jsonGo.ReplaceAll(b, []byte(`"go_version": "<goversion>"`))
	b = csvRevision.ReplaceAll(b, []byte(`# revision: <revision>`))
	return csvGo.ReplaceAll(b, []byte(`# go: <goversion>`))
}

// digestDir hashes every file of dir after normalize, as sha256sum-style
// lines sorted by name.
func digestDir(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	var lines []string
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return "", err
		}
		sum := sha256.Sum256(normalize(b))
		lines = append(lines, hex.EncodeToString(sum[:])+"  "+e.Name())
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n", nil
}

// checkDigests compares a campaign output directory with the recorded
// digests and names every file that differs, is missing or is extra.
func checkDigests(dir, want string) error {
	got, err := digestDir(dir)
	if err != nil {
		return err
	}
	if got == want {
		return nil
	}
	parse := func(s string) map[string]string {
		m := make(map[string]string)
		for _, l := range strings.Split(strings.TrimSpace(s), "\n") {
			if sum, name, ok := strings.Cut(l, "  "); ok {
				m[name] = sum
			}
		}
		return m
	}
	g, w := parse(got), parse(want)
	var bad []string
	for name, sum := range w {
		if g[name] != sum {
			bad = append(bad, name)
		}
	}
	for name := range g {
		if _, ok := w[name]; !ok {
			bad = append(bad, name+" (unexpected)")
		}
	}
	sort.Strings(bad)
	return fmt.Errorf("%w: the recorded digests of %s", errMismatch, strings.Join(bad, ", "))
}

// render renders tables in every format, keyed the way the service names
// its artifacts (<experiment>.<format>, lower-cased).
func render(tables []results.Table) (map[string][]byte, error) {
	out := make(map[string][]byte)
	for _, t := range tables {
		base := strings.ToLower(t.TableMeta().Experiment)
		for _, f := range results.Formats() {
			var buf bytes.Buffer
			if err := results.WriteFormat(&buf, t, f); err != nil {
				return nil, err
			}
			out[base+"."+f] = buf.Bytes()
		}
	}
	return out, nil
}

// sameBytes checks a fetched artifact against its reference.
func sameBytes(name string, got, want []byte) error {
	if want == nil {
		return fmt.Errorf("%s: no reference", name)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s: %w (%d bytes, reference %d)", name, errMismatch, len(got), len(want))
	}
	return nil
}

// digestsMain runs specs/paper.json once and prints its digests in the
// format of paper.sha256.
func digestsMain(w io.Writer) int {
	spec, err := campaign.LoadSpec(paperSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	dir, err := os.MkdirTemp(workDir, "digests-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)
	if _, _, err := campaign.Run(spec, dir, 0); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	s, err := digestDir(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprint(w, s)
	return 0
}
