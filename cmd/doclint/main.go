// Command doclint keeps the repository's documentation catalogs in
// sync with the code. It runs three checks and reports every failure in
// one run:
//
//   - trackers: every exported rh.Tracker implementation in
//     internal/track must be mentioned in docs/TRACKERS.md. Trackers
//     are found by their compile-time interface guards
//     (`var _ rh.Tracker = (*X)(nil)`).
//   - metrics: every metric name registered anywhere in the tree must
//     be documented in docs/METRICS.md, and every dotted metric name in
//     the catalog's tables must still be registered somewhere — stale
//     doc entries fail too, because the catalog promises names are
//     append-only and downstream dashboards key on them.
//   - packages: every directory directly under internal/ that holds
//     non-test Go files must be named as `internal/<name>` in
//     docs/ARCHITECTURE.md, and every `internal/<name>` named there
//     must be such a package.
//
// Metric registration sites are found by scanning non-test Go sources
// for the literal call shapes the codebase uses:
//
//	reg.Count("memsim.reads", …)    reg.Gauge("sim.ipc", …)
//	reg.Histogram("memsim.readq_depth", …)    counter("cache.hits", …)
//
// A registration with a computed (non-literal) name cannot be checked
// and is invisible to this linter — keep names literal. Doc entries
// are the backticked dotted names in the first column of METRICS.md
// tables. Run by `make docs-lint` (and so by `make check`).
//
// Usage:
//
//	doclint [-root DIR]
//
// Exit codes: 0 every check in sync, 1 missing/stale entries or I/O
// failure, 2 usage error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"repro/internal/cli"
)

func main() { cli.Main("doclint", run) }

var (
	// guardRe matches the compile-time interface guard every tracker in
	// internal/track declares.
	guardRe = regexp.MustCompile(`var _ rh\.Tracker = \(\*([A-Z]\w*)\)\(nil\)`)
	// registerRe matches the literal metric-registration call shapes.
	registerRe = regexp.MustCompile(`(?:\.(?:Count|Gauge|Histogram)|\bcounter)\(\s*"([a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+)"`)
	// docNameRe matches a dotted metric name in the first column of a
	// markdown table row.
	docNameRe = regexp.MustCompile("^\\|\\s*`([a-z][a-z0-9_]*(?:\\.[a-z0-9_]+)+)`\\s*\\|")
	// packageRe matches a package named as internal/<name>; a longer
	// path such as internal/memsim/channel.go names its package.
	packageRe = regexp.MustCompile(`\binternal/([a-z0-9_]+)`)
)

func run(_ context.Context, args []string) error {
	fset := flag.NewFlagSet("doclint", flag.ContinueOnError)
	root := fset.String("root", ".", "repository root: scanned for Go sources, internal/ and docs/")
	if err := cli.ParseError(fset.Parse(args)); err != nil {
		return err
	}
	var failures []string
	for _, check := range []func(root string) (string, error){checkTrackers, checkMetrics, checkPackages} {
		summary, err := check(*root)
		if err != nil {
			failures = append(failures, err.Error())
			continue
		}
		fmt.Println(summary)
	}
	if len(failures) > 0 {
		return errors.New(strings.Join(failures, "\n"))
	}
	return nil
}

// checkTrackers requires docs/TRACKERS.md to mention every tracker
// guarded in internal/track.
func checkTrackers(root string) (string, error) {
	trackDir := filepath.Join(root, "internal", "track")
	docPath := filepath.Join(root, "docs", "TRACKERS.md")
	doc, err := os.ReadFile(docPath)
	if err != nil {
		return "", err
	}
	files, err := filepath.Glob(filepath.Join(trackDir, "*.go"))
	if err != nil {
		return "", err
	}
	if len(files) == 0 {
		return "", fmt.Errorf("no Go files under %s", trackDir)
	}

	byType := map[string]string{} // tracker type -> declaring file
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		for _, m := range guardRe.FindAllStringSubmatch(string(src), -1) {
			byType[m[1]] = f
		}
	}
	if len(byType) == 0 {
		return "", fmt.Errorf("no rh.Tracker guards found under %s (pattern drift?)", trackDir)
	}

	var missing []string
	for name, file := range byType {
		if !strings.Contains(string(doc), name) {
			missing = append(missing, fmt.Sprintf("%s (declared in %s)", name, file))
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return "", fmt.Errorf("%d tracker(s) not mentioned in %s:\n  %s\n"+
			"every exported rh.Tracker implementation needs a catalog entry",
			len(missing), docPath, strings.Join(missing, "\n  "))
	}
	return fmt.Sprintf("%d trackers documented in %s", len(byType), docPath), nil
}

// checkMetrics requires docs/METRICS.md to list exactly the metric
// names registered in the tree.
func checkMetrics(root string) (string, error) {
	docPath := filepath.Join(root, "docs", "METRICS.md")
	registered, err := scanRegistrations(root)
	if err != nil {
		return "", err
	}
	if len(registered) == 0 {
		return "", fmt.Errorf("no metric registrations found under %s (pattern drift?)", root)
	}
	documented, err := scanCatalog(docPath)
	if err != nil {
		return "", err
	}
	if len(documented) == 0 {
		return "", fmt.Errorf("no metric names found in %s (pattern drift?)", docPath)
	}

	var missing, stale []string
	for name, file := range registered {
		if _, ok := documented[name]; !ok {
			missing = append(missing, fmt.Sprintf("%s (registered in %s)", name, file))
		}
	}
	for name := range documented {
		if _, ok := registered[name]; !ok {
			stale = append(stale, name)
		}
	}
	if len(missing)+len(stale) > 0 {
		var b strings.Builder
		listDrift(&b, "metric(s) registered but not documented in "+docPath, missing)
		listDrift(&b, "documented metric(s) no longer registered anywhere", stale)
		b.WriteString("metric names are append-only: document new ones, and only retire a doc row with its code")
		return "", errors.New(b.String())
	}
	return fmt.Sprintf("%d metrics registered, all documented in %s", len(registered), docPath), nil
}

// checkPackages requires docs/ARCHITECTURE.md to name every package
// directly under internal/, and nothing under internal/ that is not one.
func checkPackages(root string) (string, error) {
	internalDir := filepath.Join(root, "internal")
	docPath := filepath.Join(root, "docs", "ARCHITECTURE.md")
	doc, err := os.ReadFile(docPath)
	if err != nil {
		return "", err
	}
	entries, err := os.ReadDir(internalDir)
	if err != nil {
		return "", err
	}
	pkgs := map[string]bool{}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		files, err := filepath.Glob(filepath.Join(internalDir, e.Name(), "*.go"))
		if err != nil {
			return "", err
		}
		for _, f := range files {
			if !strings.HasSuffix(f, "_test.go") {
				pkgs[e.Name()] = true
				break
			}
		}
	}
	if len(pkgs) == 0 {
		return "", fmt.Errorf("no Go packages under %s", internalDir)
	}
	named := map[string]bool{}
	for _, m := range packageRe.FindAllStringSubmatch(string(doc), -1) {
		named[m[1]] = true
	}

	var missing, stale []string
	for name := range pkgs {
		if !named[name] {
			missing = append(missing, "internal/"+name)
		}
	}
	for name := range named {
		if !pkgs[name] {
			stale = append(stale, "internal/"+name)
		}
	}
	if len(missing)+len(stale) > 0 {
		var b strings.Builder
		listDrift(&b, "package(s) not named in "+docPath, missing)
		listDrift(&b, "package(s) named in "+docPath+" that do not exist", stale)
		b.WriteString("the package map describes the code that is there: name new packages, drop deleted ones")
		return "", errors.New(b.String())
	}
	return fmt.Sprintf("%d internal packages, all named in %s", len(pkgs), docPath), nil
}

// listDrift appends one failure section, the count and head then the
// sorted names, when names is not empty.
func listDrift(b *strings.Builder, head string, names []string) {
	if len(names) == 0 {
		return
	}
	sort.Strings(names)
	fmt.Fprintf(b, "%d %s:\n  %s\n", len(names), head, strings.Join(names, "\n  "))
}

// scanRegistrations walks the tree for non-test Go files and collects
// literally registered metric names -> first declaring file.
func scanRegistrations(root string) (map[string]string, error) {
	found := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Skip VCS internals and vendored trees; everything else —
			// internal/, cmd/, the root package — is fair game.
			switch d.Name() {
			case ".git", "vendor", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range registerRe.FindAllStringSubmatch(string(src), -1) {
			if _, ok := found[m[1]]; !ok {
				found[m[1]] = path
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return found, nil
}

// scanCatalog collects the dotted metric names documented in the
// catalog's table rows.
func scanCatalog(path string) (map[string]bool, error) {
	doc, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	found := map[string]bool{}
	for _, line := range strings.Split(string(doc), "\n") {
		if m := docNameRe.FindStringSubmatch(line); m != nil {
			found[m[1]] = true
		}
	}
	return found, nil
}
