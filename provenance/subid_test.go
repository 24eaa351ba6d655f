package provenance

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/repro/inspector/internal/core"
)

// TestSubIDStringMatchesSprintf holds core.SubID.String, which appends
// with strconv, to the fmt.Sprintf("T%d.%d") rendering it replaced, and
// round-trips every rendering through ParseSubID: every id a query
// result names goes through both.
func TestSubIDStringMatchesSprintf(t *testing.T) {
	ids := []core.SubID{
		{Thread: 0, Alpha: 0},
		{Thread: 0, Alpha: 1},
		{Thread: 2, Alpha: 5},
		{Thread: 9, Alpha: 10},
		{Thread: 1 << 20, Alpha: 1 << 40},
		{Thread: math.MaxInt32, Alpha: math.MaxUint32},
		{Thread: math.MaxInt, Alpha: math.MaxUint64},
		{Thread: 0, Alpha: math.MaxUint64},
		{Thread: -1, Alpha: 3},
		{Thread: math.MinInt, Alpha: 0},
	}
	r := rand.New(rand.NewSource(3))
	for range 1000 {
		ids = append(ids, core.SubID{Thread: int(r.Int63n(1 << uint(1+r.Intn(62)))), Alpha: r.Uint64() >> uint(r.Intn(64))})
	}
	for _, id := range ids {
		got := id.String()
		if want := fmt.Sprintf("T%d.%d", id.Thread, id.Alpha); got != want {
			t.Fatalf("SubID%+v.String() = %q, want %q", id, got, want)
		}
		back, err := ParseSubID(got)
		if err != nil || back != id {
			t.Fatalf("ParseSubID(%q) = %+v, %v; want %+v", got, back, err, id)
		}
	}
}
