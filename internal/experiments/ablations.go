package experiments

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/kernel"
	"repro/internal/ulib"
)

// AblationResult collects the design-choice ablations: COW vs eager
// fork (the paper's §2 history) and the §8
// mitigation that refuses fork in multithreaded processes.
type AblationResult struct {
	EagerRows []EagerRow
	// MitigationDeadlock is the outcome of the threads demo without
	// the mitigation; MitigationRefused with it.
	MitigationDeadlock string
	MitigationRefused  string
}

// EagerRow compares one parent size.
type EagerRow struct {
	SizeBytes uint64
	COW       cost.Ticks
	Eager     cost.Ticks
}

// Ablations runs both studies.
func Ablations(maxBytes uint64) (*AblationResult, error) {
	if maxBytes == 0 {
		maxBytes = 64 * MiB
	}
	res := &AblationResult{}

	// 1. COW vs eager fork.
	for _, size := range SizeSweep(4*MiB, maxBytes) {
		k := NewKernel(kernel.Options{RAMBytes: 4 * maxBytes})
		if err := ulib.Install(k, "true", "/bin/true"); err != nil {
			return nil, err
		}
		parent, err := BuildParent(k, "p", size, false)
		if err != nil {
			return nil, err
		}
		row := EagerRow{SizeBytes: size}
		for _, m := range []core.Method{core.MethodForkExec, core.MethodForkEagerExec} {
			if _, err := core.MeasureCreation(k, parent, m, "/bin/true"); err != nil {
				return nil, err
			}
			el, err := core.MeasureCreation(k, parent, m, "/bin/true")
			if err != nil {
				return nil, err
			}
			if m == core.MethodForkExec {
				row.COW = el
			} else {
				row.Eager = el
			}
		}
		res.EagerRows = append(res.EagerRows, row)
		k.DestroyProcess(parent)
	}

	// 2. The §8 mitigation.
	outcome := func(deny bool) (string, error) {
		k := NewKernel(kernel.Options{DenyMultithreadedFork: deny})
		if err := ulib.InstallAll(k); err != nil {
			return "", err
		}
		if _, err := k.BootInit("/bin/threads_deadlock", []string{"threads_deadlock"}); err != nil {
			return "", err
		}
		err := k.Run(kernel.RunLimits{MaxInstructions: 10_000_000})
		var dl *kernel.DeadlockError
		switch {
		case errors.As(err, &dl):
			return "deadlock", nil
		case err != nil:
			return "", err
		default:
			return "completed (fork refused with EAGAIN)", nil
		}
	}
	var err error
	if res.MitigationDeadlock, err = outcome(false); err != nil {
		return nil, err
	}
	if res.MitigationRefused, err = outcome(true); err != nil {
		return nil, err
	}
	return res, nil
}

// Render formats the ablations.
func (r *AblationResult) Render() string {
	rows := [][]string{{"parent size", "COW fork+exec", "eager fork+exec", "eager/COW"}}
	for _, e := range r.EagerRows {
		rows = append(rows, []string{
			HumanBytes(e.SizeBytes),
			fmt.Sprintf("%.1fµs", e.COW.Micros()),
			fmt.Sprintf("%.1fµs", e.Eager.Micros()),
			fmt.Sprintf("%.1fx", float64(e.Eager)/float64(e.COW)),
		})
	}
	out := "Ablation 1: copy-on-write vs 1970s eager fork\n" + renderTable(rows)
	out += "\nAblation 5 (§8 mitigation): fork in a multithreaded program\n"
	out += fmt.Sprintf("  default kernel:                 %s\n", r.MitigationDeadlock)
	out += fmt.Sprintf("  with DenyMultithreadedFork:     %s\n", r.MitigationRefused)
	return out
}
