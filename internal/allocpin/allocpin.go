// Package allocpin runs an allocation pin in a process of its own.
//
// An allocation pin reads the process-wide runtime.MemStats counters
// around its window, so an allocation by any other test or goroutine in
// the same process lands in that window. MeasureAlone re-executes the
// test binary to run the one pin alone instead.
package allocpin

import (
	"os"
	"os/exec"
	"strings"
)

// T is the part of *testing.T a pin needs. Shipped code does not link
// the testing package, so the helper names the methods, not the type.
type T interface {
	Helper()
	Name() string
	Fatalf(format string, args ...any)
	Log(args ...any)
}

// env names the one allocation pin a re-executed test binary measures.
const env = "INSPECTOR_ALLOC_PIN"

// MeasureAlone reports whether the calling allocation pin is to measure
// here. It is in the process MeasureAlone starts for it: the test
// binary re-executed to run the pin alone, under GOMAXPROCS=1, so that
// no other test or goroutine allocates inside the pin's window of the
// process-wide counters. Anywhere else it starts that process, fails
// the pin with the process's output if it fails, logs its lines and
// reports false.
func MeasureAlone(t T) bool {
	t.Helper()
	if os.Getenv(env) == t.Name() {
		return true
	}
	cmd := exec.Command(os.Args[0], "-test.run", "^"+t.Name()+"$", "-test.count=1", "-test.v")
	cmd.Env = append(os.Environ(), env+"="+t.Name(), "GOMAXPROCS=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s alone: %v\n%s", t.Name(), err, out)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if strings.HasPrefix(line, "    ") {
			t.Log(strings.TrimSpace(line))
		}
	}
	return false
}
