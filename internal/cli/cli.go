// Package cli is the shared entry-point scaffolding for the repo's
// binaries. Every command is written as
//
//	func main() { cli.Main("tool", run) }
//	func run(ctx context.Context, args []string) error { ... }
//
// so there is a single exit point per process and a consistent exit
// code contract: 0 on success, 1 on runtime failure, 2 on a usage
// error (bad flags, missing arguments, unknown targets), 130 when the
// run was interrupted (SIGINT/SIGTERM — 128+SIGINT, the shell
// convention). The run function returns errors instead of calling
// os.Exit, which keeps its defers (profile flushing, file closing)
// working — exactly what a graceful shutdown needs.
//
// The context Main passes to run is cancelled on the first SIGINT or
// SIGTERM; run bodies thread it into their campaign so in-flight cells
// stop and telemetry drains (finished cells already sit in the result
// cache's directory, if it has one). A second signal restores the
// default handler's immediate kill, so a wedged shutdown can still be
// interrupted from the keyboard.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

// Exit codes of every binary in this repo.
const (
	ExitOK        = 0
	ExitRuntime   = 1
	ExitUsage     = 2
	ExitInterrupt = 130 // 128 + SIGINT, the shell convention
)

// usageError marks a command-line mistake; Main exits 2 for it. quiet
// suppresses Main's printing when the flag package already reported
// the problem.
type usageError struct {
	msg   string
	quiet bool
}

func (e *usageError) Error() string { return e.msg }

// Usagef returns a usage error (exit code 2) with a formatted message.
func Usagef(format string, args ...any) error {
	return &usageError{msg: fmt.Sprintf(format, args...)}
}

// ParseError adapts a flag.FlagSet parse failure: flag.ErrHelp passes
// through (Main exits 0 for -h), anything else becomes a quiet usage
// error because the flag package has already printed the diagnostic.
func ParseError(err error) error {
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return err
	}
	return &usageError{msg: err.Error(), quiet: true}
}

// Main runs the tool body and exits the process with the contract
// above. It is the only os.Exit call site in a binary.
//
// Interruption trumps other outcomes: when the context was cancelled
// by a signal, the process exits 130 whether run managed to return
// cleanly or with an error — the caller (shell, CI, driver) must see
// that the output is the product of an interrupted run.
func Main(tool string, run func(ctx context.Context, args []string) error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// After the first signal cancels ctx, restore default signal
	// disposition so a second ^C kills a shutdown that is not finishing.
	go func() {
		<-ctx.Done()
		stop()
	}()

	err := run(ctx, os.Args[1:])
	if ctx.Err() != nil {
		if err != nil && !errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "%s: interrupted: %v\n", tool, err)
		} else {
			fmt.Fprintf(os.Stderr, "%s: interrupted\n", tool)
		}
		os.Exit(ExitInterrupt)
	}
	if err == nil {
		return // exit 0
	}
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(ExitOK)
	}
	var ue *usageError
	if errors.As(err, &ue) {
		if !ue.quiet {
			fmt.Fprintf(os.Stderr, "%s: %s\n", tool, ue.msg)
		}
		os.Exit(ExitUsage)
	}
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	os.Exit(ExitRuntime)
}
