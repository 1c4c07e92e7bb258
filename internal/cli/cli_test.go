package cli

import (
	"context"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

func TestExitCode(t *testing.T) {
	cases := map[syscall.Signal]int{
		syscall.SIGINT:  130,
		syscall.SIGTERM: 143,
		syscall.SIGHUP:  129,
	}
	for sig, want := range cases {
		if got := ExitCode(sig); got != want {
			t.Errorf("ExitCode(%v) = %d, want %d", sig, got, want)
		}
	}
}

func TestSignalContextCancelsAndNumbers(t *testing.T) {
	ctx, sigCode, stop := SignalContext(context.Background())
	defer stop()
	if sigCode() != 0 {
		t.Fatalf("sigCode before any signal = %d, want 0", sigCode())
	}
	// Deliver a real SIGINT to ourselves; the context must cancel and the
	// code must read 130.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("context not cancelled by SIGINT")
	}
	if code := sigCode(); code != 130 {
		t.Fatalf("sigCode after SIGINT = %d, want 130", code)
	}
}

func TestSignalContextStopReleases(t *testing.T) {
	ctx, sigCode, stop := SignalContext(context.Background())
	stop()
	<-ctx.Done() // stop cancels the derived context
	if sigCode() != 0 {
		t.Fatalf("sigCode after plain stop = %d, want 0", sigCode())
	}
}

// TestStartProfilesStopIsIdempotent checks stop writes both profiles once
// and that a second stop (the deferred one after Exit's) is a no-op.
func TestStartProfilesStopIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	cpuPath, memPath := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	stop, err := StartProfiles(cpuPath, memPath)
	if err != nil {
		t.Fatal(err)
	}
	stop()
	sizes := map[string]int64{}
	for _, p := range []string{cpuPath, memPath} {
		fi, err := os.Stat(p)
		if err != nil || fi.Size() == 0 {
			t.Fatalf("%s after stop: %v, %v bytes; want a non-empty profile", p, err, fi)
		}
		sizes[p] = fi.Size()
	}
	stop()
	for p, n := range sizes {
		if fi, err := os.Stat(p); err != nil || fi.Size() != n {
			t.Fatalf("second stop rewrote %s", p)
		}
	}
	if _, err := StartProfiles(filepath.Join(dir, "missing", "cpu.pprof"), ""); err == nil {
		t.Fatal("StartProfiles into a missing directory: want an error")
	}
}
