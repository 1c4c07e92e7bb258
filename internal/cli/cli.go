// Package cli holds the small shared plumbing of the repo's command-line
// tools: signal-aware context cancellation with conventional exit codes, and
// CPU/heap profiles that survive a failing run.
//
// All three binaries (clrsim, experiments, clrserve) cancel their work
// through a context when SIGINT or SIGTERM arrives; the convention for a
// process killed by a signal is to exit with 128+signum (so Ctrl-C exits
// 130, SIGTERM 143) rather than a generic failure code, which lets shells
// and process supervisors distinguish "interrupted" from "failed".
package cli

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"syscall"
)

// ExitCode returns the conventional exit code for death by sig: 128+signum
// (SIGINT → 130, SIGTERM → 143), or 1 for a signal it cannot number.
func ExitCode(sig os.Signal) int {
	if s, ok := sig.(syscall.Signal); ok {
		return 128 + int(s)
	}
	return 1
}

// SignalContext derives a context cancelled by SIGINT or SIGTERM. It also
// returns sigCode, reporting the exit code of the first signal received (0
// while none has arrived), and stop, which releases the signal handler.
// The intended use is to run everything under ctx and, on a
// context.Canceled failure, exit with sigCode() — Exit packages exactly
// that.
func SignalContext(parent context.Context) (ctx context.Context, sigCode func() int, stop func()) {
	ctx, cancel := context.WithCancel(parent)
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	var code atomic.Int32
	go func() {
		select {
		case sig := <-ch:
			code.Store(int32(ExitCode(sig)))
			cancel()
		case <-ctx.Done():
		}
	}()
	return ctx,
		func() int { return int(code.Load()) },
		func() { signal.Stop(ch); cancel() }
}

// Exit terminates the process over err: "tool: err" on stderr, then exit 1
// — except when the error is the cancellation a signal caused (sigCode
// non-zero and err wraps context.Canceled), where it exits with the
// signal's conventional code instead. A nil sigCode means no signal
// handling (plain exit 1).
func Exit(tool string, err error, sigCode func() int) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	if sigCode != nil && errors.Is(err, context.Canceled) {
		if code := sigCode(); code != 0 {
			os.Exit(code)
		}
	}
	os.Exit(1)
}

// StartProfiles starts a CPU profile written to cpuPath and arranges a heap
// profile for memPath; an empty path skips that profile. The returned stop
// ends the CPU profile and writes the heap profile, reporting failures on
// stderr. It is idempotent, so a tool can both defer it for a normal return
// and call it before Exit, whose os.Exit skips deferred calls.
func StartProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		if cpuFile, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	var once sync.Once
	stop = func() {
		once.Do(func() {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				if err := cpuFile.Close(); err != nil {
					fmt.Fprintf(os.Stderr, "cpu profile: %v\n", err)
				}
			}
			if memPath != "" {
				if err := writeHeapProfile(memPath); err != nil {
					fmt.Fprintf(os.Stderr, "heap profile: %v\n", err)
				}
			}
		})
	}
	return stop, nil
}

// writeHeapProfile writes an up-to-date heap profile to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
