package loadtest

import "testing"

// TestLoadSmoke is the CI soak: M=2 recorders × N=8 clients, run under
// -race. The contract is Run's own pass criterion — zero dropped
// epochs, byte-identical exports — plus evidence the load actually
// happened.
func TestLoadSmoke(t *testing.T) {
	rep, err := Run(Options{Recorders: 2, Clients: 8, Steps: 120, Seed: 42})
	if err != nil {
		t.Fatalf("soak failed: %v (report %+v)", err, rep)
	}
	if rep.DroppedEpochs != 0 || rep.Mismatched != 0 {
		t.Fatalf("contract: %d dropped epochs, %d mismatched exports", rep.DroppedEpochs, rep.Mismatched)
	}
	if rep.Epochs == 0 {
		t.Fatal("no epochs ingested; the soak recorded nothing")
	}
	if rep.Queries == 0 {
		t.Fatal("no queries completed; the clients never ran")
	}
	t.Logf("soak: %d epochs @ %.0f frames/s, %d queries (p50 %dns, p99 %dns)",
		rep.Epochs, rep.FramesPerSec, rep.Queries, rep.QueryP50Ns, rep.QueryP99Ns)
}

// BenchmarkFabric soaks the ingest wire at three recorder × client
// shapes, reporting ingest throughput and query latency quantiles
// alongside ns/op. Every iteration enforces Run's contract (zero dropped
// epochs, byte-identical exports), so the numbers are of correct runs
// only.
func BenchmarkFabric(b *testing.B) {
	for _, c := range []struct {
		name string
		opts Options
	}{
		{"2rec-8cli", Options{Recorders: 2, Clients: 8, Steps: 200}},
		{"4rec-16cli", Options{Recorders: 4, Clients: 16, Steps: 200}},
		{"1rec-32cli", Options{Recorders: 1, Clients: 32, Steps: 300}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var frames, p50, p99 float64
			for i := 0; i < b.N; i++ {
				opts := c.opts
				opts.Seed = int64(i + 1)
				rep, err := Run(opts)
				if err != nil {
					b.Fatal(err)
				}
				frames += rep.FramesPerSec
				p50 += float64(rep.QueryP50Ns)
				p99 += float64(rep.QueryP99Ns)
			}
			n := float64(b.N)
			b.ReportMetric(frames/n, "frames/s")
			b.ReportMetric(p50/n, "p50_ns")
			b.ReportMetric(p99/n, "p99_ns")
		})
	}
}
