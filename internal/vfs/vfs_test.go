package vfs

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/errno"
)

func TestPathResolution(t *testing.T) {
	fs := NewFS()
	if _, err := fs.MkdirAll("/a/b/c"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.WriteFile("/a/b/c/file", []byte("data")); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{
		"/a/b/c/file",
		"/a/./b/../b/c/file",
		"//a//b//c//file",
	} {
		ino, err := fs.Resolve(nil, path)
		if err != nil {
			t.Errorf("Resolve(%q): %v", path, err)
			continue
		}
		if string(ino.Data()) != "data" {
			t.Errorf("Resolve(%q) wrong inode", path)
		}
	}
	// Relative resolution.
	dir, _ := fs.Resolve(nil, "/a/b")
	ino, err := fs.Resolve(dir, "c/file")
	if err != nil || string(ino.Data()) != "data" {
		t.Errorf("relative resolve failed: %v", err)
	}
	// ".." above root stays at root.
	r, err := fs.Resolve(nil, "/../../..")
	if err != nil || r != fs.Root() {
		t.Errorf("escaping root: %v", err)
	}
	// Errors.
	if _, err := fs.Resolve(nil, "/a/missing"); !errors.Is(err, errno.ENOENT) {
		t.Errorf("missing: %v", err)
	}
	if _, err := fs.Resolve(nil, "/a/b/c/file/x"); !errors.Is(err, errno.ENOTDIR) {
		t.Errorf("through file: %v", err)
	}
}

// TestInodeReadAt pins ReadAt's contract for image paging: the file's
// bytes where it has them and zeroes past EOF, whatever the buffer
// held before.
func TestInodeReadAt(t *testing.T) {
	ino := &Inode{Type: TypeFile}
	ino.SetData([]byte("abcdef"))
	for _, tc := range []struct {
		name string
		off  uint64
		n    int
		want string
	}{
		{"inside", 1, 3, "bcd"},
		{"to EOF", 2, 4, "cdef"},
		{"straddles EOF", 4, 5, "ef\x00\x00\x00"},
		{"at EOF", 6, 3, "\x00\x00\x00"},
		{"past EOF", 100, 2, "\x00\x00"},
	} {
		buf := bytes.Repeat([]byte{0xff}, tc.n)
		ino.ReadAt(tc.off, buf)
		if string(buf) != tc.want {
			t.Errorf("%s: ReadAt(%d, [%d]) = %q, want %q", tc.name, tc.off, tc.n, buf, tc.want)
		}
	}
}

func TestCreateTruncatesAndRemove(t *testing.T) {
	fs := NewFS()
	ino, err := fs.Create(nil, "/f")
	if err != nil {
		t.Fatal(err)
	}
	ino.SetData([]byte("old"))
	again, err := fs.Create(nil, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if again != ino || len(again.Data()) != 0 {
		t.Error("create did not truncate in place")
	}
	if err := fs.Remove(nil, "/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Resolve(nil, "/f"); !errors.Is(err, errno.ENOENT) {
		t.Errorf("after remove: %v", err)
	}
	// Non-empty dir refuses removal.
	fs.MkdirAll("/d")
	fs.WriteFile("/d/x", nil)
	if err := fs.Remove(nil, "/d"); !errors.Is(err, errno.ENOTEMPTY) {
		t.Errorf("rmdir non-empty: %v", err)
	}
}

func TestReadDirSorted(t *testing.T) {
	fs := NewFS()
	fs.MkdirAll("/dir")
	for _, n := range []string{"zeta", "alpha", "mid"} {
		fs.WriteFile("/dir/"+n, nil)
	}
	names, err := fs.ReadDir(nil, "/dir")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v", names)
		}
	}
}

func TestOpenFileReadWriteSeek(t *testing.T) {
	fs := NewFS()
	ino, _ := fs.WriteFile("/f", []byte("hello world"))
	of := NewOpenFile(ino, ORdWr)
	buf := make([]byte, 5)
	n, err := of.Read(buf)
	if n != 5 || err != nil || string(buf) != "hello" {
		t.Fatalf("read: %d %v %q", n, err, buf)
	}
	if of.Pos() != 5 {
		t.Errorf("pos = %d", of.Pos())
	}
	if _, err := of.Write([]byte("!!!!!!")); err != nil {
		t.Fatal(err)
	}
	if string(ino.Data()) != "hello!!!!!!" {
		t.Errorf("data = %q", ino.Data())
	}
	if pos, err := of.Seek(-6, SeekEnd); err != nil || pos != 5 {
		t.Errorf("seek: %d %v", pos, err)
	}
	// Append mode always writes at the end.
	ap := NewOpenFile(ino, OWrOnly|OAppend)
	ap.Write([]byte("+"))
	if string(ino.Data()) != "hello!!!!!!+" {
		t.Errorf("append: %q", ino.Data())
	}
	// Access-mode enforcement.
	ro := NewOpenFile(ino, ORdOnly)
	if _, err := ro.Write([]byte("x")); !errors.Is(err, errno.EBADF) {
		t.Errorf("write on O_RDONLY: %v", err)
	}
	wo := NewOpenFile(ino, OWrOnly)
	if _, err := wo.Read(buf); !errors.Is(err, errno.EBADF) {
		t.Errorf("read on O_WRONLY: %v", err)
	}
}

func TestSharedOffsetViaRetain(t *testing.T) {
	fs := NewFS()
	ino, _ := fs.WriteFile("/f", []byte("abcdef"))
	of := NewOpenFile(ino, ORdOnly)
	dup := of.Retain()
	buf := make([]byte, 2)
	of.Read(buf)
	dup.Read(buf)
	if string(buf) != "cd" {
		t.Errorf("dup did not share offset: %q", buf)
	}
	if of.Refs() != 2 {
		t.Errorf("refs = %d", of.Refs())
	}
	dup.Release()
	of.Release()
}

func TestPipeBasics(t *testing.T) {
	r, w := NewPipe()
	if _, err := w.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	n, err := r.Read(buf)
	if n != 4 || err != nil || string(buf[:4]) != "ping" {
		t.Fatalf("pipe read: %d %v %q", n, err, buf[:n])
	}
	// Empty + writer alive → would block.
	if _, err := r.Read(buf); err != ErrWouldBlock {
		t.Errorf("empty pipe: %v, want would-block", err)
	}
	// Writer closed → EOF.
	w.Release()
	if n, err := r.Read(buf); n != 0 || err != nil {
		t.Errorf("EOF: %d %v", n, err)
	}
	// Reader closed → EPIPE.
	r2, w2 := NewPipe()
	r2.Release()
	if _, err := w2.Write([]byte("x")); !errors.Is(err, errno.EPIPE) {
		t.Errorf("write to readerless pipe: %v", err)
	}
}

func TestPipeCapacityAndWrap(t *testing.T) {
	r, w := NewPipe()
	big := bytes.Repeat([]byte{7}, PipeCapacity+100)
	n, err := w.Write(big)
	if err != nil || n != PipeCapacity {
		t.Fatalf("fill: %d %v", n, err)
	}
	if _, err := w.Write([]byte("x")); err != ErrWouldBlock {
		t.Errorf("full pipe: %v", err)
	}
	// Drain half, refill, verify FIFO across the ring seam.
	half := make([]byte, PipeCapacity/2)
	r.Read(half)
	if _, err := w.Write(bytes.Repeat([]byte{9}, 100)); err != nil {
		t.Fatal(err)
	}
	rest := make([]byte, PipeCapacity/2+100)
	got := 0
	for got < len(rest) {
		n, err := r.Read(rest[got:])
		if err != nil || n == 0 {
			t.Fatalf("drain: %d %v", n, err)
		}
		got += n
	}
	for i := 0; i < PipeCapacity/2; i++ {
		if rest[i] != 7 {
			t.Fatalf("FIFO broken at %d: %d", i, rest[i])
		}
	}
	for i := PipeCapacity / 2; i < len(rest); i++ {
		if rest[i] != 9 {
			t.Fatalf("FIFO broken at %d: %d", i, rest[i])
		}
	}
}

func TestFDTable(t *testing.T) {
	fs := NewFS()
	ino, _ := fs.WriteFile("/f", []byte("x"))
	tbl := NewFDTable()
	fd, err := tbl.Install(NewOpenFile(ino, ORdOnly), false, 0)
	if err != nil || fd != 0 {
		t.Fatalf("install: %d %v", fd, err)
	}
	fd2, _ := tbl.Install(NewOpenFile(ino, ORdOnly), false, 0)
	if fd2 != 1 {
		t.Fatalf("second fd = %d", fd2)
	}
	tbl.SetCloexec(1, true)
	// Dup shares the description and clears cloexec.
	d, err := tbl.Dup(1, 10)
	if err != nil || d != 10 {
		t.Fatalf("dup: %d %v", d, err)
	}
	if ce, _ := tbl.Cloexec(10); ce {
		t.Error("dup kept cloexec")
	}
	of1, _ := tbl.Get(1)
	of10, _ := tbl.Get(10)
	if of1 != of10 {
		t.Error("dup did not share description")
	}
	// Dup2 onto an open slot closes it.
	if _, err := tbl.Dup2(0, 10); err != nil {
		t.Fatal(err)
	}
	if of10b, _ := tbl.Get(10); of10b == of10 {
		t.Error("dup2 did not replace")
	}
	// dup2(fd, fd) is a no-op.
	if n, err := tbl.Dup2(0, 0); n != 0 || err != nil {
		t.Errorf("self dup2: %d %v", n, err)
	}
	// DoCloexec closes only marked slots (fd 1 is marked; 0 and 10
	// are not).
	tbl.DoCloexec()
	if _, err := tbl.Get(1); !errors.Is(err, errno.EBADF) {
		t.Error("cloexec slot survived")
	}
	if _, err := tbl.Get(0); err != nil {
		t.Error("cloexec closed an unmarked slot")
	}
	// Clone preserves slots and flags.
	tbl.SetCloexec(0, true)
	cl, n := tbl.Clone()
	if n != tbl.OpenCount() {
		t.Errorf("clone count = %d, want %d", n, tbl.OpenCount())
	}
	if ce, _ := cl.Cloexec(0); !ce {
		t.Error("clone lost cloexec")
	}
	cl.CloseAll()
	tbl.CloseAll()
}

func TestFDLimit(t *testing.T) {
	fs := NewFS()
	ino, _ := fs.WriteFile("/f", nil)
	tbl := NewFDTable()
	for i := 0; i < MaxFDs; i++ {
		if _, err := tbl.Install(NewOpenFile(ino, ORdOnly), false, 0); err != nil {
			t.Fatalf("install %d: %v", i, err)
		}
	}
	if _, err := tbl.Install(NewOpenFile(ino, ORdOnly), false, 0); !errors.Is(err, errno.EMFILE) {
		t.Errorf("over-limit install: %v, want EMFILE", err)
	}
}

func TestDevices(t *testing.T) {
	fs := NewFS()
	var out bytes.Buffer
	if _, err := fs.MkdirAll("/dev"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Mknod("/dev/null", NullDevice{}); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Mknod("/dev/console", &ConsoleDevice{Out: &out, In: bytes.NewBufferString("input")}); err != nil {
		t.Fatal(err)
	}
	null, _ := fs.Resolve(nil, "/dev/null")
	con, _ := fs.Resolve(nil, "/dev/console")

	nf := NewOpenFile(null, ORdWr)
	if n, err := nf.Write([]byte("discard")); n != 7 || err != nil {
		t.Errorf("null write: %d %v", n, err)
	}
	buf := make([]byte, 4)
	if n, _ := nf.Read(buf); n != 0 {
		t.Errorf("null read: %d", n)
	}
	cf := NewOpenFile(con, ORdWr)
	cf.Write([]byte("hello"))
	if out.String() != "hello" {
		t.Errorf("console out: %q", out.String())
	}
	n, err := cf.Read(buf)
	if err != nil || string(buf[:n]) != "inpu" {
		t.Errorf("console in: %q %v", buf[:n], err)
	}
	// Seeking a device is ESPIPE.
	if _, err := cf.Seek(0, SeekSet); !errors.Is(err, errno.ESPIPE) {
		t.Errorf("device seek: %v", err)
	}
}

// TestQuickPipeFIFO: any chunking of writes and reads preserves byte
// order exactly.
func TestQuickPipeFIFO(t *testing.T) {
	f := func(chunks [][]byte) bool {
		r, w := NewPipe()
		var wrote, read bytes.Buffer
		for _, c := range chunks {
			if len(c) == 0 {
				continue
			}
			n, err := w.Write(c)
			if err == ErrWouldBlock {
				n = 0
			} else if err != nil {
				return false
			}
			wrote.Write(c[:n])
			// Drain a bit to make room.
			buf := make([]byte, 1+len(c)/2)
			m, err := r.Read(buf)
			if err != nil && err != ErrWouldBlock {
				return false
			}
			read.Write(buf[:m])
		}
		for {
			buf := make([]byte, 4096)
			m, err := r.Read(buf)
			if err == ErrWouldBlock || m == 0 {
				break
			}
			read.Write(buf[:m])
		}
		return bytes.Equal(wrote.Bytes(), read.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickFDTableInvariants: random install/close/dup keeps OpenCount
// and refcounts consistent.
func TestQuickFDTableInvariants(t *testing.T) {
	fs := NewFS()
	ino, _ := fs.WriteFile("/f", nil)
	f := func(ops []uint8) bool {
		tbl := NewFDTable()
		open := 0
		for _, op := range ops {
			switch op % 3 {
			case 0:
				if _, err := tbl.Install(NewOpenFile(ino, ORdOnly), op%2 == 0, 0); err == nil {
					open++
				}
			case 1:
				if fd := tbl.MaxFD(); fd >= 0 {
					if err := tbl.Close(fd); err == nil {
						open--
					}
				}
			case 2:
				if fd := tbl.MaxFD(); fd >= 0 {
					if _, err := tbl.Dup(fd, 0); err == nil {
						open++
					}
				}
			}
			if tbl.OpenCount() != open {
				return false
			}
		}
		tbl.CloseAll()
		return tbl.OpenCount() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
