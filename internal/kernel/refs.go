package kernel

import (
	"fmt"
	"sort"

	"repro/internal/addrspace"
	"repro/internal/mem"
	"repro/internal/pagetable"
)

// CheckFrameRefs verifies refcount conservation on a quiescent machine:
// every allocated frame is mapped by some live address space, and its
// reference count equals the number of distinct page-table nodes that
// map it (see pagetable.NodeRefs) — a leaf that forked spaces share
// holds one reference, however many of them link it. It walks every
// page table, so it is meant for tests and debugging.
func (k *Kernel) CheckFrameRefs() error {
	pids := make([]PID, 0, len(k.procs))
	for pid := range k.procs {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	seen := map[*addrspace.Space]bool{}
	var tables []*pagetable.Table
	for _, pid := range pids {
		if s := k.procs[pid].space; s != nil && !seen[s] {
			seen[s] = true
			tables = append(tables, s.PageTable())
		}
	}
	refs := pagetable.NodeRefs(tables...)
	frames := make([]mem.FrameID, 0, len(refs))
	var pages uint64
	for f := range refs {
		frames = append(frames, f)
		pages += f.Pages()
	}
	sort.Slice(frames, func(i, j int) bool { return frames[i] < frames[j] })
	for _, f := range frames {
		if got := k.phys.Refs(f); got != refs[f] {
			return fmt.Errorf("kernel: frame %d has %d refs, %d page-table nodes map it", f, got, refs[f])
		}
	}
	if got := k.phys.AllocatedPages(); got != pages {
		return fmt.Errorf("kernel: %d pages allocated, live page tables map %d", got, pages)
	}
	return nil
}
