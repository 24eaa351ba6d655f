//go:build linux

package journal

import (
	"errors"
	"os"
	"syscall"
)

// window is how much of journal.isj is reserved and mapped at a time:
// a frame is copied into the mapped window, and the next window is
// reserved and mapped when the frames reach its end. Only the current
// window is mapped, so the journal adds at most one window to the
// recorder's resident set.
const window = 1 << 20

// fallocate reserves file blocks; a test substitutes it to refuse a
// reservation.
var fallocate = syscall.Fallocate

// CreateFile creates the journal file at name, exclusively: the File a
// Writer appends to unless Options.OpenFile names another, and the one
// tests and the fault injector wrap. On Linux it is a shared mapping of
// the file (see mappedFile), or a plain *os.File on a filesystem that
// cannot reserve space.
func CreateFile(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	m := &mappedFile{f: f}
	switch err := m.reserve(window); {
	case err == nil:
		return m, nil
	case errors.Is(err, syscall.EOPNOTSUPP) || errors.Is(err, syscall.ENOSYS):
		return f, nil
	default:
		f.Close()
		os.Remove(name)
		return nil, err
	}
}

// mappedFile appends through a MAP_SHARED window of the file, so a
// Write is a copy into the file's own page-cache pages and makes no
// system call until it crosses into the next window. A process killed
// mid-run loses nothing a write(2) would have kept: the mapped pages
// belong to the kernel, and the file ends in the zeroed, never-written
// rest of its last reserved window (Recover reads that as the clean end
// of the frames). Every mapped byte is reserved with fallocate before
// it is mapped, so a full disk fails Write instead of raising SIGBUS at
// a page fault.
type mappedFile struct {
	f        *os.File
	win      []byte // the mapped window, nil before the first Write
	base     int64  // the window's file offset
	off      int64  // bytes written: the file's length at Close
	reserved int64  // bytes fallocated, a multiple of window
}

// reserve grows the reservation to cover the file's first end bytes.
func (m *mappedFile) reserve(end int64) error {
	if end <= m.reserved {
		return nil
	}
	end = (end + window - 1) &^ (window - 1)
	if err := fallocate(int(m.f.Fd()), 0, m.reserved, end-m.reserved); err != nil {
		return &os.PathError{Op: "fallocate", Path: m.f.Name(), Err: err}
	}
	m.reserved = end
	return nil
}

// Write copies b at the end of the written bytes. It reserves
// everything b needs first, so a refused reservation writes nothing.
func (m *mappedFile) Write(b []byte) (int, error) {
	if err := m.reserve(m.off + int64(len(b))); err != nil {
		return 0, err
	}
	n := 0
	for n < len(b) {
		if m.win == nil || m.off >= m.base+window {
			if err := m.remap(m.off &^ (window - 1)); err != nil {
				return n, err
			}
		}
		c := copy(m.win[m.off-m.base:], b[n:])
		n += c
		m.off += int64(c)
	}
	return n, nil
}

// remap moves the mapping to the window at base.
func (m *mappedFile) remap(base int64) error {
	if err := m.unmap(); err != nil {
		return err
	}
	win, err := syscall.Mmap(int(m.f.Fd()), base, window, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return &os.PathError{Op: "mmap", Path: m.f.Name(), Err: err}
	}
	m.win, m.base = win, base
	return nil
}

func (m *mappedFile) unmap() error {
	if m.win == nil {
		return nil
	}
	err := syscall.Munmap(m.win)
	m.win = nil
	if err != nil {
		return &os.PathError{Op: "munmap", Path: m.f.Name(), Err: err}
	}
	return nil
}

// Sync fsyncs the descriptor, which on Linux writes back the pages
// dirtied through the mapping too.
func (m *mappedFile) Sync() error { return m.f.Sync() }

// Close unmaps the window, truncates the file to the bytes written and
// closes it: a closed journal holds its frames and nothing after them.
func (m *mappedFile) Close() error {
	return errors.Join(m.unmap(), m.f.Truncate(m.off), m.f.Close())
}
