// Command tracegen records the synthetic workload traces to disk in
// the compact binary format of internal/trace (one file per core), so
// runs can be replayed byte-identically — or replaced with traces
// converted from other tools.
//
// Usage:
//
//	tracegen -workload parest -scale 16 -out /tmp/parest     # record
//	tracegen -verify /tmp/parest                              # check
//
// Exit codes: 0 success, 1 runtime failure, 2 usage error, 130
// interrupted.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/cli"
	"repro/internal/dram"
	"repro/internal/obsv"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() { cli.Main("tracegen", run) }

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	name := fs.String("workload", "parest", "workload to record")
	scale := fs.Float64("scale", 16, "footprint scale")
	cores := fs.Int("cores", 8, "number of cores (one file per core)")
	seed := fs.Uint64("seed", 1, "generator seed")
	out := fs.String("out", "", "output directory (created if missing)")
	verify := fs.String("verify", "", "verify a recorded trace directory and print stats")
	cpuProf := fs.String("cpuprofile", "", "write a pprof CPU profile")
	memProf := fs.String("memprofile", "", "write a pprof heap profile")
	if err := cli.ParseError(fs.Parse(args)); err != nil {
		return err
	}

	stopProfiles, err := obsv.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer stopProfiles()

	if *verify != "" {
		if err := verifyDir(*verify); err != nil {
			return err
		}
		return stopProfiles()
	}
	if *out == "" {
		return cli.Usagef("-out directory required")
	}
	if err := record(ctx, *name, *scale, *cores, *seed, *out); err != nil {
		return err
	}
	return stopProfiles()
}

func record(ctx context.Context, name string, scale float64, cores int, seed uint64, out string) error {
	p, err := workload.ByName(name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	mem := dram.Baseline()
	base := workload.DefaultStreamConfig(mem, mem.RowsPerBank-17)
	base.Scale = scale
	base.Cores = cores
	base.Seed = seed
	streams, err := workload.NewStreams(p, base)
	if err != nil {
		return err
	}
	var total int64
	for core, src := range streams {
		if err := ctx.Err(); err != nil {
			return err // interrupted between cores; finished files are intact
		}
		path := filepath.Join(out, fmt.Sprintf("core%d.trc", core))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		w, err := trace.NewWriter(f)
		if err != nil {
			f.Close()
			return err
		}
		n, err := trace.Record(w, src)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("recording %s: %w", path, err)
		}
		total += n
		fmt.Printf("wrote %s: %d records\n", path, n)
	}
	fmt.Printf("recorded %s at scale %g: %d records total\n", name, scale, total)
	return nil
}

func verifyDir(dir string) error {
	files, err := filepath.Glob(filepath.Join(dir, "core*.trc"))
	if err != nil {
		return err
	}
	if len(files) == 0 {
		return fmt.Errorf("no core*.trc files in %s", dir)
	}
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		r, err := trace.NewReader(f)
		if err != nil {
			f.Close()
			return fmt.Errorf("%s: %w", path, err)
		}
		var reads, writes int64
		for {
			rec, ok := r.Next()
			if !ok {
				break
			}
			if rec.Write {
				writes++
			} else {
				reads++
			}
		}
		f.Close()
		if err := r.Err(); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Printf("%s: %d reads, %d writes\n", path, reads, writes)
	}
	return nil
}
