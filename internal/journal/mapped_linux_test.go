package journal

import (
	"bytes"
	"errors"
	"os"
	"syscall"
	"testing"

	"github.com/repro/inspector/internal/core"
)

// refuseReservations makes fallocate fail with errno for every call
// refuse selects, for the rest of the test.
func refuseReservations(t *testing.T, errno syscall.Errno, refuse func(off int64) bool) {
	t.Cleanup(func() { fallocate = syscall.Fallocate })
	fallocate = func(fd int, mode uint32, off, n int64) error {
		if refuse(off) {
			return errno
		}
		return syscall.Fallocate(fd, mode, off, n)
	}
}

// branchyDeltas returns a function that cuts one single-thread epoch
// per call whose one vertex carries 100 000 thunks, a few hundred KB of
// frame.
func branchyDeltas(t *testing.T) func() *core.EpochDelta {
	g := core.NewGraph(1)
	rec, err := core.NewRecorder(g, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	site := g.InternSite("loop")
	cut := core.NewCutter(g)
	return func() *core.EpochDelta {
		for i := range 100_000 {
			rec.OnBranch(site, i%3 == 0)
		}
		if _, err := rec.EndSub(core.SyncEvent{Kind: core.SyncNone}, 0); err != nil {
			t.Fatal(err)
		}
		cut.Cut()
		d := new(core.EpochDelta)
		cut.FillDelta(d)
		return d
	}
}

// TestMappedJournalCrossesWindows: a journal several windows long,
// abandoned without Close the way a SIGKILL leaves it, is its frames
// followed by the zeroed rest of the last window; Recover reads every
// frame and stops cleanly at the zeros, and a closed journal is exactly
// its frames.
func TestMappedJournalCrossesWindows(t *testing.T) {
	for _, kill := range []bool{true, false} {
		dir := t.TempDir()
		w, err := Create(Options{Dir: dir, Threads: 1, Fsync: PolicyNone})
		if err != nil {
			t.Fatal(err)
		}
		m, ok := w.f.(*mappedFile)
		if !ok {
			t.Fatalf("default journal file is %T, want the mapping", w.f)
		}
		next := branchyDeltas(t)
		var last uint64
		for m.off < 3*window {
			d := next()
			if err := w.Append(d); err != nil {
				t.Fatal(err)
			}
			last = d.Epoch
		}
		written := m.off
		if kill {
			m.unmap()
			m.f.Close()
		} else if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(Path(dir))
		if err != nil {
			t.Fatal(err)
		}
		if want := (written + window - 1) &^ (window - 1); kill && st.Size() != want {
			t.Fatalf("killed journal is %d bytes, want its reservation %d", st.Size(), want)
		} else if !kill && st.Size() != written {
			t.Fatalf("closed journal is %d bytes, want the %d written", st.Size(), written)
		}
		rep, err := Recover(dir, RecoverOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Torn != nil || rep.Sealed || rep.Epoch != last || rep.End != written || !rep.Degraded() {
			t.Fatalf("kill=%v: torn=%v sealed=%v epoch=%d end=%d degraded=%v, want untorn unsealed epoch %d end %d",
				kill, rep.Torn, rep.Sealed, rep.Epoch, rep.End, rep.Degraded(), last, written)
		}
	}
}

// TestRefusedReservationLatches: a full disk refuses the next window's
// reservation. The Write that needed it writes nothing and fails, the
// writer latches the error, and recovery returns every frame before it,
// untorn. No page is ever touched outside a reservation, so there is no
// SIGBUS to catch.
func TestRefusedReservationLatches(t *testing.T) {
	refuseReservations(t, syscall.ENOSPC, func(off int64) bool { return off > 0 })
	dir := t.TempDir()
	w, err := Create(Options{Dir: dir, Threads: 1, Fsync: PolicyAlways})
	if err != nil {
		t.Fatal(err)
	}
	next := branchyDeltas(t)
	var last uint64
	var first error
	for first == nil {
		d := next()
		if first = w.Append(d); first == nil {
			last = d.Epoch
		}
	}
	if !errors.Is(first, syscall.ENOSPC) {
		t.Fatalf("append past the reservation: %v, want ENOSPC", first)
	}
	written := w.f.(*mappedFile).off
	if err := w.Append(next()); err != first {
		t.Fatalf("append after the refusal = %v, want the latched %v", err, first)
	}
	if err := w.Finish(last); err != first {
		t.Fatalf("Finish = %v, want the latched %v", err, first)
	}
	if st, err := os.Stat(Path(dir)); err != nil || st.Size() != written {
		t.Fatalf("journal after the refusal: %v (err %v), want the %d bytes written before it", st, err, written)
	}
	rep, err := Recover(dir, RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Torn != nil || rep.Sealed || rep.Epoch != last || !rep.Degraded() {
		t.Fatalf("torn=%v sealed=%v epoch=%d degraded=%v, want the untorn unsealed prefix to epoch %d",
			rep.Torn, rep.Sealed, rep.Epoch, rep.Degraded(), last)
	}
}

// TestCreateFileFallsBack: a filesystem that cannot reserve space gets a
// plain file, on which a journal round-trips; any other refusal at
// create fails Create and leaves nothing behind.
func TestCreateFileFallsBack(t *testing.T) {
	for _, errno := range []syscall.Errno{syscall.EOPNOTSUPP, syscall.ENOSYS} {
		refuseReservations(t, errno, func(int64) bool { return true })
		dir := t.TempDir()
		w, err := Create(Options{Dir: dir, Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := w.f.(*os.File); !ok {
			t.Fatalf("%v: journal file is %T, want a plain *os.File", errno, w.f)
		}
		next := branchyDeltas(t)
		d := next()
		if err := w.Append(d); err != nil {
			t.Fatal(err)
		}
		if err := w.Seal(d.Epoch); err != nil {
			t.Fatal(err)
		}
		rep, err := Recover(dir, RecoverOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Sealed || rep.Torn != nil || rep.Epoch != d.Epoch {
			t.Fatalf("%v: sealed=%v torn=%v epoch=%d", errno, rep.Sealed, rep.Torn, rep.Epoch)
		}
	}

	refuseReservations(t, syscall.ENOSPC, func(int64) bool { return true })
	dir := t.TempDir()
	if _, err := Create(Options{Dir: dir, Threads: 1}); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Create on a full disk: %v, want ENOSPC", err)
	}
	if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
		t.Fatalf("refused Create left %v behind (err %v)", left, err)
	}
}

// TestMappedWriteMatchesPlainFile: the same records through the mapping
// and through a plain file make the same bytes.
func TestMappedWriteMatchesPlainFile(t *testing.T) {
	var files [2][]byte
	for i, open := range []func(string) (File, error){CreateFile, func(name string) (File, error) {
		return os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	}} {
		dir := t.TempDir()
		w, err := Create(Options{Dir: dir, Threads: 1, RunID: "same", OpenFile: open})
		if err != nil {
			t.Fatal(err)
		}
		next := branchyDeltas(t)
		var d *core.EpochDelta
		for range 8 {
			d = next()
			if err := w.Append(d); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Seal(d.Epoch); err != nil {
			t.Fatal(err)
		}
		if files[i], err = os.ReadFile(Path(dir)); err != nil {
			t.Fatal(err)
		}
	}
	if len(files[0]) <= window || !bytes.Equal(files[0], files[1]) {
		t.Fatalf("mapped journal %d bytes, plain %d: want equal and longer than a window", len(files[0]), len(files[1]))
	}
}
