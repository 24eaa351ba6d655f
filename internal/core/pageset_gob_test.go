package core

import "github.com/repro/inspector/internal/wire"

// PageSet's gob form, for tests only: deltacodec_test.go's gobRoundTrip
// oracle (the version-1 payload codec) gob-encodes whole EpochDeltas,
// and gob cannot see PageSet's unexported fields without these. No
// product code reads or writes gob.

// GobEncode encodes the set in the AppendPages form.
func (s PageSet) GobEncode() ([]byte, error) {
	return AppendPages(nil, s.view()), nil
}

// GobDecode reads the GobEncode form.
func (s *PageSet) GobDecode(data []byte) error {
	c := wire.NewCursor(data)
	ParsePageSet(&c, "pageset", nil, s)
	return c.Done()
}
