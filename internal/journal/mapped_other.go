//go:build !linux

package journal

import "os"

// CreateFile creates the journal file at name, exclusively: the File a
// Writer appends to unless Options.OpenFile names another, and the one
// tests and the fault injector wrap. Off Linux it is a plain *os.File,
// one write(2) per record.
func CreateFile(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}
