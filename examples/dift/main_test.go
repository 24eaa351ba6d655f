package main

import (
	"strings"
	"testing"
)

// TestPolicyDeniesTheSecretAndAllowsThePublicWrite: the case study's
// finding. Of the two output calls, the one emitting the value derived
// from credentials.txt is refused and the one emitting the aggregate of
// public.csv goes through.
func TestPolicyDeniesTheSecretAndAllowsThePublicWrite(t *testing.T) {
	f, err := audit()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.decisions) != 2 {
		t.Fatalf("%d output calls judged, want 2: %+v", len(f.decisions), f.decisions)
	}
	for _, d := range f.decisions {
		if d.allow == d.secret {
			t.Errorf("write() from %v (secret=%v): allow=%v, want DENY for the secret and ALLOW for the public result", d.from, d.secret, d.allow)
		}
	}
	var out strings.Builder
	f.print(&out)
	for _, want := range []string{"-> ALLOW\n", "-> DENY (tainted by sensitive input)\n"} {
		if strings.Count(out.String(), want) != 1 {
			t.Errorf("printed output has %d %q lines, want 1:\n%s", strings.Count(out.String(), want), want, out.String())
		}
	}
}
