package load_test

import (
	"testing"

	"repro/sim"
	"repro/sim/load"
)

// TestServerServesAndDrains: the persistent server serves batches
// across the closed loop, the running totals add up, and Drain
// returns process, frame, and commit counts to the post-warm-up
// baseline under every strategy — the scale-down leak invariant at
// its source.
func TestServerServesAndDrains(t *testing.T) {
	for _, via := range sim.Strategies() {
		if via == sim.EmulatedFork {
			continue // Θ(resident bytes) per creation; covered in the cluster tests at tiny scale
		}
		t.Run(via.String(), func(t *testing.T) {
			s, err := load.NewServer(load.Config{
				Via: via, HeapBytes: 4 << 20, Workers: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			if s.WarmupNanos() == 0 {
				t.Error("warm-up took no virtual time")
			}
			b1, err := s.ServeBatch(8, 0)
			if err != nil {
				t.Fatal(err)
			}
			b2, err := s.ServeBatch(5, 0)
			if err != nil {
				t.Fatal(err)
			}
			if b1.Served != 8 || b2.Served != 5 || b1.Failed+b2.Failed != 0 {
				t.Errorf("batches served %d/%d failed %d/%d, want 8/5 0/0",
					b1.Served, b2.Served, b1.Failed, b2.Failed)
			}
			if b1.Nanos == 0 || b2.Nanos == 0 {
				t.Error("batch consumed no virtual time")
			}
			if c := b1.Creations + b2.Creations; c != 13 {
				t.Errorf("batches created %d workers, want 13", c)
			}
			if rss := s.PeakRSSBytes(); rss < 4<<20 {
				t.Errorf("peak RSS %d below resident heap", rss)
			}
			d, err := s.Drain()
			if err != nil {
				t.Fatal(err)
			}
			if d.EndProcs != d.BaseProcs {
				t.Errorf("process leak: %d -> %d", d.BaseProcs, d.EndProcs)
			}
			if d.EndPages != d.BasePages {
				t.Errorf("frame leak: %d -> %d", d.BasePages, d.EndPages)
			}
			if d.EndCommit != d.BaseCommit {
				t.Errorf("commit leak: %d -> %d", d.BaseCommit, d.EndCommit)
			}
			if _, err := s.Drain(); err == nil {
				t.Error("double Drain did not error")
			}
			if _, err := s.ServeBatch(1, 0); err == nil {
				t.Error("ServeBatch after Drain did not error")
			}
		})
	}
}

// TestServerBudgetStopsLaunching: a batch under a virtual-time budget
// serves fewer requests than offered — the leftover is the caller's
// backlog — and identical configs leave identical leftovers (the
// reconcile loop's determinism rests on this).
func TestServerBudgetStopsLaunching(t *testing.T) {
	run := func() (load.Batch, uint64) {
		t.Helper()
		s, err := load.NewServer(load.Config{
			Via: sim.ForkExec, HeapBytes: 16 << 20, Workers: 2, RequestWorkMiB: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		// One fork of a 16 MiB parent costs ~1ms virtual; 2ms cannot
		// fit 50 requests.
		b, err := s.ServeBatch(50, 2_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return b, s.Elapsed()
	}
	b, elapsed := run()
	if b.Served >= 50 {
		t.Errorf("served all %d requests under a 2ms budget", b.Served)
	}
	if b.Served == 0 {
		t.Error("budget served nothing")
	}
	if b.Nanos < 2_000_000 {
		t.Errorf("batch stopped at %dns, before the budget", b.Nanos)
	}
	b2, elapsed2 := run()
	if b != b2 || elapsed != elapsed2 {
		t.Errorf("budgeted batch not deterministic: %+v @%d vs %+v @%d", b, elapsed, b2, elapsed2)
	}
}

// TestServerWarmupForkVsSpawn pins the cluster experiment's premise:
// with a dirty heap and a pre-created pool, a fork machine's warm-up
// (Θ(heap) page-table duplication per worker) costs more virtual time
// than a spawn machine's.
func TestServerWarmupForkVsSpawn(t *testing.T) {
	warm := func(via sim.Strategy) uint64 {
		t.Helper()
		s, err := load.NewServer(load.Config{Via: via, HeapBytes: 64 << 20, Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Drain()
		if via == sim.ForkExec && s.WarmupPTECopies() == 0 {
			t.Error("fork warm-up copied no PTEs")
		}
		return s.WarmupNanos()
	}
	fork, spawn := warm(sim.ForkExec), warm(sim.Spawn)
	if fork <= spawn {
		t.Errorf("fork warm-up %dns not above spawn %dns", fork, spawn)
	}
}
