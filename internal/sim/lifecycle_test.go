package sim

import (
	"runtime"
	"testing"
)

// Lifecycle of process coroutines: whatever state a process is left in when
// the run ends, Close must reclaim its goroutine synchronously, and a second
// Close must be a no-op.

// checkCloseReclaims runs a simulation on a fresh engine, closes it twice,
// and requires the goroutine count to be back where it was before the
// engine existed.
func checkCloseReclaims(t *testing.T, run func(e *Engine)) {
	t.Helper()
	before := runtime.NumGoroutine()
	e := NewEngine()
	run(e)
	e.Close()
	e.Close()
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines: %d before the engine, %d after Close", before, n)
	}
}

func TestCloseReclaimsNeverStartedProc(t *testing.T) {
	ran := false
	checkCloseReclaims(t, func(e *Engine) {
		e.SpawnAt(100, "unborn", func(*Proc) { ran = true })
		if err := e.RunWindow(50); err != nil {
			t.Fatalf("RunWindow: %v", err)
		}
	})
	if ran {
		t.Fatal("a process closed before its start event ran its body")
	}
}

func TestCloseReclaimsProcParkedAtWindowBoundary(t *testing.T) {
	steps := 0
	checkCloseReclaims(t, func(e *Engine) {
		e.Spawn("stepper", func(p *Proc) {
			for {
				p.Advance(10)
				steps++
			}
		})
		for _, limit := range []Time{35, 55} {
			if err := e.RunWindow(limit); err != nil {
				t.Fatalf("RunWindow(%v): %v", limit, err)
			}
		}
		if e.Now() != 50 || steps != 5 {
			t.Fatalf("after two windows: now %v, %d steps; want 50ns, 5", e.Now(), steps)
		}
	})
}

func TestCloseReclaimsProcKilledMidWait(t *testing.T) {
	reached := false
	checkCloseReclaims(t, func(e *Engine) {
		g := NewGate("never")
		victim := e.Spawn("victim", func(p *Proc) {
			g.Wait(p)
			reached = true
		})
		e.After(10, victim.Kill)
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
	})
	if reached {
		t.Fatal("killed process ran past its wait")
	}
}

func TestCloseReclaimsParkedDaemons(t *testing.T) {
	checkCloseReclaims(t, func(e *Engine) {
		g := NewGate("never")
		for i := 0; i < 3; i++ {
			m := NewMailbox[int]("idle")
			e.SpawnDaemon("stream", func(p *Proc) {
				for {
					m.Get(p)
				}
			})
		}
		e.SpawnDaemon("watcher", func(p *Proc) { g.Wait(p) })
		e.Spawn("main", func(p *Proc) { p.Advance(100) })
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
	})
}

// TestPanicAfterHandoff panics in a process that was resumed by another
// process's handoff (not by the driver directly): the run must still end
// with a *PanicError naming it, and Close must reclaim the survivor.
func TestPanicAfterHandoff(t *testing.T) {
	checkCloseReclaims(t, func(e *Engine) {
		e.Spawn("a", func(p *Proc) {
			p.Advance(1)
			p.Advance(5) // parks a; its dispatch hands off to b's wake at 2
		})
		e.Spawn("b", func(p *Proc) {
			p.Advance(2)
			panic("boom")
		})
		pe, ok := e.Run().(*PanicError)
		if !ok || pe.Proc != "b" || pe.Value != "boom" {
			t.Fatalf("err = %v, want b's PanicError", pe)
		}
		if e.Now() != 2 {
			t.Fatalf("panic surfaced at %v, want 2ns", e.Now())
		}
	})
}
