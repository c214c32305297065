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

// TestDocLintNamesEveryDrift builds a tree whose catalogs drift five
// ways at once — a tracker missing from TRACKERS.md, a registered
// metric missing from METRICS.md, a METRICS.md row nothing registers, a
// package ARCHITECTURE.md does not name, and a package it names that
// does not exist — and requires one run to fail naming all five, while
// the documented tracker, metric and package go unmentioned. A
// directory holding only tests is not a package the map must name.
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
		"internal/mapped/mapped.go":     "package mapped\n",
		"internal/unmapped/unmapped.go": "package unmapped\n",
		"internal/testsonly/x_test.go":  "package testsonly\n",
		"docs/ARCHITECTURE.md": "Packages: `internal/track`, `internal/obs`, " +
			"`internal/mapped` (see internal/mapped/mapped.go) and `internal/gone`.\n",
	})
	err := run(context.Background(), []string{"-root", root})
	if err == nil {
		t.Fatal("doclint passed a tree with an undocumented tracker, an undocumented metric and a stale catalog row")
	}
	msg := err.Error()
	for _, want := range []string{"Ghost", "obs.undocumented", "obs.stale", "internal/unmapped", "internal/gone"} {
		if !strings.Contains(msg, want) {
			t.Errorf("failure does not name %s:\n%s", want, msg)
		}
	}
	for _, clean := range []string{"Known", "obs.documented", "internal/mapped", "internal/testsonly"} {
		if strings.Contains(msg, clean) {
			t.Errorf("failure names documented entry %s:\n%s", clean, msg)
		}
	}
}

// TestDocLintRepositoryInSync runs every check on this repository.
func TestDocLintRepositoryInSync(t *testing.T) {
	if err := run(context.Background(), []string{"-root", filepath.Join("..", "..")}); err != nil {
		t.Fatal(err)
	}
}
