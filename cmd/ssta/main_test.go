package main

import (
	"context"
	"errors"
	"os"
	"os/signal"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestLoadCircuitBuiltins pins the built-in circuit table.
func TestLoadCircuitBuiltins(t *testing.T) {
	for _, name := range []string{"tree7", "fig2", "apex1", "apex2", "k2"} {
		c, lib, err := loadCircuit(name)
		if err != nil {
			t.Fatalf("loadCircuit(%q): %v", name, err)
		}
		if c == nil || lib == nil {
			t.Fatalf("loadCircuit(%q) returned nil circuit or library", name)
		}
	}
	if _, _, err := loadCircuit("no-such-circuit"); err == nil {
		t.Fatal("loadCircuit on a missing file did not error")
	}
}

// TestTraceFlagCreatesParentDirs pins the -trace behavior this CLI
// relies on: pointing -trace (or -spans) into a directory that does
// not exist yet must create the parents instead of failing the run.
func TestTraceFlagCreatesParentDirs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs", "nested", "trace.jsonl")
	w, err := telemetry.CreateTrace(path)
	if err != nil {
		t.Fatalf("CreateTrace into missing directory: %v", err)
	}
	w.Event("smoke", "test")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("trace file missing: %v", err)
	}
}

// recordExit returns an exit stand-in for watchDeadline and the
// channel its calls land on.
func recordExit() (func(error), chan error) {
	calls := make(chan error, 1)
	return func(err error) { calls <- err }, calls
}

// assertExit fails unless exit is called with an error matching want.
func assertExit(t *testing.T, calls chan error, want error) {
	t.Helper()
	select {
	case err := <-calls:
		if !errors.Is(err, want) {
			t.Fatalf("exit(%v), want %v", err, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("watcher did not exit after its context ended")
	}
}

// assertNoExit fails if exit is called within a grace period after
// the context ended.
func assertNoExit(t *testing.T, calls chan error) {
	t.Helper()
	select {
	case err := <-calls:
		t.Fatalf("watcher exited after it was stopped: exit(%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestWatchDeadline pins the process-level deadline watcher: a context
// that ends while the work runs exits with its error, and a watcher
// stood down before the context ends never exits — including main's
// normal exit, where the deferred signal-context cancel runs after the
// watcher's own deferred stop.
func TestWatchDeadline(t *testing.T) {
	t.Run("cancelled before done", func(t *testing.T) {
		exit, calls := recordExit()
		ctx, cancel := context.WithCancel(context.Background())
		stop := watchDeadline(ctx, exit)
		cancel()
		assertExit(t, calls, context.Canceled)
		stop()
	})
	t.Run("deadline before done", func(t *testing.T) {
		exit, calls := recordExit()
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		defer cancel()
		stop := watchDeadline(ctx, exit)
		assertExit(t, calls, context.DeadlineExceeded)
		stop()
	})
	t.Run("done before cancel", func(t *testing.T) {
		exit, calls := recordExit()
		ctx, cancel := context.WithCancel(context.Background())
		watchDeadline(ctx, exit)()
		cancel()
		assertNoExit(t, calls)
	})
	t.Run("normal exit after deferred cancel", func(t *testing.T) {
		exit, calls := recordExit()
		func() {
			ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
			defer stopSignals()
			defer watchDeadline(ctx, exit)()
		}()
		assertNoExit(t, calls)
	})
}
