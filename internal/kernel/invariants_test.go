package kernel

// Property-based tests over the process-management API: arbitrary
// interleavings of spawn/fork/exit/reap must preserve the process
// table's structural invariants and never leak memory or commit.

import (
	"testing"
	"testing/quick"

	"repro/internal/addrspace"
	"repro/internal/mem"
	"repro/internal/ulib"
	"repro/internal/vfs"
)

func newOF(ino *vfs.Inode) *vfs.OpenFile { return vfs.NewOpenFile(ino, vfs.ORdWr) }

const (
	abiFADup2 = 1
	abiFAOpen = 3
)

// checkTreeInvariants validates parent/child bookkeeping.
func checkTreeInvariants(t *testing.T, k *Kernel) bool {
	t.Helper()
	ok := true
	for pid, p := range k.procs {
		if p.Pid != pid {
			t.Logf("pid key mismatch: %d vs %d", pid, p.Pid)
			ok = false
		}
		if p.state == ProcReaped {
			t.Logf("reaped process %d still in table", pid)
			ok = false
		}
		for _, c := range p.children {
			if c.parent != p {
				t.Logf("child %d of %d has parent %v", c.Pid, p.Pid, c.parent)
				ok = false
			}
			if c.state == ProcReaped {
				t.Logf("reaped child %d still linked under %d", c.Pid, p.Pid)
				ok = false
			}
		}
		if p.parent != nil && p.parent.state == ProcAlive {
			found := false
			for _, c := range p.parent.children {
				if c == p {
					found = true
				}
			}
			if !found {
				t.Logf("process %d missing from parent %d's child list", p.Pid, p.parent.Pid)
				ok = false
			}
		}
	}
	return ok
}

// TestQuickProcessTree drives random process-management operations.
func TestQuickProcessTree(t *testing.T) {
	f := func(ops []uint8) bool {
		k := mustNew(t, Options{RAMBytes: 512 << 20})
		if err := ulib.Install(k, "true", "/bin/true"); err != nil {
			t.Fatal(err)
		}
		root := k.NewSynthetic("root", nil)
		if _, err := root.Space().Map(0x100000, 1<<20, addrspace.Read|addrspace.Write, addrspace.MapOpts{}); err != nil {
			t.Fatal(err)
		}
		live := []*Process{root}
		for _, op := range ops {
			if len(live) == 0 {
				break
			}
			target := live[int(op/8)%len(live)]
			switch op % 8 {
			case 0, 1: // spawn a parked child
				c, err := k.Spawn(target, "/bin/true", []string{"true"}, nil, SpawnAttr{}, false)
				if err == nil {
					live = append(live, c)
				}
			case 2, 3: // fork
				c, err := k.Fork(target)
				if err == nil {
					live = append(live, c)
				}
			case 4: // exit (children reparent or self-reap)
				k.ExitProcess(target, 0)
				nl := live[:0]
				for _, p := range live {
					if p.state == ProcAlive {
						nl = append(nl, p)
					}
				}
				live = nl
			case 5: // reap any zombie child of target
				k.WaitReap(target, -1)
			case 6: // touch some memory (fault paths under churn)
				target.Space().Touch(0x100000, 4096, addrspace.AccessWrite)
			case 7: // exec the target to a fresh image
				k.Exec(target, "/bin/true", []string{"true"})
			}
			if !checkTreeInvariants(t, k) {
				return false
			}
			if err := k.CheckFrameRefs(); err != nil {
				t.Logf("after op %d: %v", op%8, err)
				return false
			}
		}
		// Tear everything down one process at a time, conserving
		// frame refcounts at every step: no leaks of frames or commit.
		for _, p := range live {
			k.DestroyProcess(p)
			if err := k.CheckFrameRefs(); err != nil {
				t.Logf("after destroying %d: %v", p.Pid, err)
				return false
			}
		}
		for _, p := range k.procs {
			if p.state == ProcZombie {
				k.reap(p)
			}
		}
		if got := k.phys.AllocatedPages(); got != 0 {
			t.Logf("leaked %d pages", got)
			return false
		}
		if got := k.phys.Committed(); got != 0 {
			t.Logf("leaked %d committed pages", got)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSpawnFailurePaths: spawn must unwind cleanly on every failure
// mode, leaking neither processes nor descriptors.
func TestSpawnFailurePaths(t *testing.T) {
	k := mustNew(t, Options{RAMBytes: 64 << 20})
	if err := ulib.Install(k, "true", "/bin/true"); err != nil {
		t.Fatal(err)
	}
	parent := k.NewSynthetic("parent", nil)
	base := k.ProcessCount()

	// Missing binary.
	if _, err := k.Spawn(parent, "/bin/absent", nil, nil, SpawnAttr{}, false); err == nil {
		t.Error("spawn of missing binary succeeded")
	}
	// Bad file action (dup2 of a closed fd).
	fas := []FileAction{{Op: abiFADup2, FD: 42, NewFD: 0}}
	if _, err := k.Spawn(parent, "/bin/true", []string{"t"}, fas, SpawnAttr{}, false); err == nil {
		t.Error("spawn with bad dup2 succeeded")
	}
	// Bad open path in an action.
	fas = []FileAction{{Op: abiFAOpen, FD: 0, Path: "/nope/x"}}
	if _, err := k.Spawn(parent, "/bin/true", []string{"t"}, fas, SpawnAttr{}, false); err == nil {
		t.Error("spawn with bad open succeeded")
	}
	if got := k.ProcessCount(); got != base {
		t.Errorf("process count %d after failures, want %d", got, base)
	}
	if got := k.phys.Committed(); got != parent.Space().Committed()>>12 {
		t.Errorf("commit leak after failed spawns: %d", got)
	}
	k.DestroyProcess(parent)
}

// TestForkFailureUnwind: a fork refused by strict commit must leave no
// trace.
func TestForkFailureUnwind(t *testing.T) {
	k := mustNew(t, Options{RAMBytes: 32 << 20, Commit: mem.CommitStrict})
	parent := k.NewSynthetic("parent", nil)
	if _, err := parent.Space().Map(0x100000, 20<<20, addrspace.Read|addrspace.Write, addrspace.MapOpts{}); err != nil {
		t.Fatal(err)
	}
	base := k.ProcessCount()
	children := len(parent.children)
	if _, err := k.Fork(parent); err == nil {
		t.Fatal("fork should fail under strict commit")
	}
	if k.ProcessCount() != base {
		t.Errorf("half-created child left in table")
	}
	if len(parent.children) != children {
		t.Errorf("dangling child link")
	}
	k.DestroyProcess(parent)
	if k.phys.Committed() != 0 {
		t.Errorf("commit leak: %d", k.phys.Committed())
	}
}

// TestExecFailureKeepsOldImage: a failed exec must leave the process
// able to continue with its original address space.
func TestExecFailureKeepsOldImage(t *testing.T) {
	k := mustNew(t, Options{})
	if err := ulib.Install(k, "true", "/bin/true"); err != nil {
		t.Fatal(err)
	}
	p := k.NewSynthetic("p", nil)
	v, err := p.Space().Map(0x100000, 4096, addrspace.Read|addrspace.Write, addrspace.MapOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Space().WriteBytes(v.Start, []byte("still here")); err != nil {
		t.Fatal(err)
	}
	if err := k.Exec(p, "/bin/missing", nil); err == nil {
		t.Fatal("exec of missing binary succeeded")
	}
	buf := make([]byte, 10)
	if err := p.Space().ReadBytes(v.Start, buf); err != nil || string(buf) != "still here" {
		t.Errorf("old image damaged by failed exec: %q %v", buf, err)
	}
	k.DestroyProcess(p)
}

// TestFDExhaustionOnSpawnClone: a parent at the descriptor limit can
// still spawn (the clone preserves, not extends), but file actions
// that need new slots fail cleanly.
func TestFDExhaustionOnSpawnClone(t *testing.T) {
	k := mustNew(t, Options{})
	if err := ulib.Install(k, "true", "/bin/true"); err != nil {
		t.Fatal(err)
	}
	parent := k.NewSynthetic("parent", nil)
	ino, _ := k.FS().WriteFile("/tmp/x", nil)
	for {
		if _, err := parent.FDs().Install(newOF(ino), false, 0); err != nil {
			break
		}
	}
	child, err := k.Spawn(parent, "/bin/true", []string{"t"}, nil, SpawnAttr{}, false)
	if err != nil {
		t.Fatalf("spawn from fd-full parent: %v", err)
	}
	if child.FDs().OpenCount() != parent.FDs().OpenCount() {
		t.Errorf("child fds = %d, parent = %d", child.FDs().OpenCount(), parent.FDs().OpenCount())
	}
	k.DestroyProcess(child)
	k.DestroyProcess(parent)
}
