package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree creates each file (path relative to root) with its content.
func writeTree(t *testing.T, root string, files map[string]string) {
	t.Helper()
	for rel, content := range files {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDocLintNamesEveryDrift builds a tree whose catalogs drift three
// ways at once — a tracker missing from TRACKERS.md, a registered
// metric missing from METRICS.md, and a METRICS.md row nothing
// registers — and requires one run to fail naming all three, while the
// documented tracker and metric go unmentioned.
func TestDocLintNamesEveryDrift(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root, map[string]string{
		"internal/track/known.go": "package track\n\nvar _ rh.Tracker = (*Known)(nil)\n",
		"internal/track/ghost.go": "package track\n\nvar _ rh.Tracker = (*Ghost)(nil)\n",
		"internal/obs/obs.go": "package obs\n\nfunc collect(reg *Registry) {\n" +
			"\treg.Count(\"obs.documented\", 1)\n\treg.Gauge(\"obs.undocumented\", 2)\n}\n",
		"docs/TRACKERS.md": "# Trackers\n\n`Known` is documented here.\n",
		"docs/METRICS.md": "| Metric | Meaning |\n|---|---|\n" +
			"| `obs.documented` | registered and documented |\n" +
			"| `obs.stale` | documented, registered nowhere |\n",
	})
	err := run(context.Background(), []string{"-root", root})
	if err == nil {
		t.Fatal("doclint passed a tree with an undocumented tracker, an undocumented metric and a stale catalog row")
	}
	msg := err.Error()
	for _, want := range []string{"Ghost", "obs.undocumented", "obs.stale"} {
		if !strings.Contains(msg, want) {
			t.Errorf("failure does not name %s:\n%s", want, msg)
		}
	}
	for _, clean := range []string{"Known", "obs.documented"} {
		if strings.Contains(msg, clean) {
			t.Errorf("failure names documented entry %s:\n%s", clean, msg)
		}
	}
}

// TestDocLintRepositoryInSync runs both checks on this repository.
func TestDocLintRepositoryInSync(t *testing.T) {
	if err := run(context.Background(), []string{"-root", filepath.Join("..", "..")}); err != nil {
		t.Fatal(err)
	}
}
