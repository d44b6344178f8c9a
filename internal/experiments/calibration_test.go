package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
)

// TestCalibrationAnchors pins the cost model's calibration to exact
// virtual times on the Figure 1 sweep (`forkbench -max 64MiB -reps 1
// fig1`): fork+exec 100.3 µs at 1 MiB rising about 64 µs per MiB,
// vfork+exec 32.8 µs and posix_spawn 162.8 µs flat, and spawn
// overtaking fork+exec at 2 MiB. Fork bills one PTE copy per mapped
// page however the host performs the clone, so these ticks and copy
// counts must not move when the simulator's own page-table work does.
func TestCalibrationAnchors(t *testing.T) {
	res, err := Figure1(Fig1Config{MaxBytes: 64 * MiB, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	anchors := []struct {
		method    core.Method
		size      uint64
		ticks     cost.Ticks
		pteCopies uint64
	}{
		{core.MethodForkExec, 1 * MiB, 100280, 256},
		{core.MethodForkExec, 2 * MiB, 164280, 512},
		{core.MethodForkExec, 64 * MiB, 4149330, 16384},
		{core.MethodVforkExec, 1 * MiB, 32780, 0},
		{core.MethodVforkExec, 64 * MiB, 32780, 0},
		{core.MethodSpawn, 1 * MiB, 162780, 0},
		{core.MethodSpawn, 64 * MiB, 162780, 0},
	}
	for _, a := range anchors {
		found := false
		for _, p := range res.Points {
			if p.Method != a.method || p.SizeBytes != a.size {
				continue
			}
			found = true
			if p.Mean != a.ticks || p.PTECopies != a.pteCopies {
				t.Errorf("%v at %s: %d ticks, %d PTE copies; want %d, %d",
					a.method, HumanBytes(a.size), p.Mean, p.PTECopies, a.ticks, a.pteCopies)
			}
		}
		if !found {
			t.Errorf("no %v point at %s", a.method, HumanBytes(a.size))
		}
	}
	if cx, ok := res.Crossover(); !ok || cx != 2*MiB {
		t.Errorf("crossover at %s (found %v), want 2MiB", HumanBytes(cx), ok)
	}
}
