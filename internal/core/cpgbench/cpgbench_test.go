package cpgbench

import "testing"

// TestFixturesLogSyncEdges: the mutex changes hands between threads, so
// the fixtures every benchmark and equivalence test builds on exercise
// the sync-edge path, not only program order.
func TestFixturesLogSyncEdges(t *testing.T) {
	if st := BuildRandomGraph(8, 2000, 64, 1, 42).Analyze().Stats(); st.SyncEdges == 0 {
		t.Errorf("sparse fixture: %+v, want sync edges", st)
	}
	if st := BuildRandomGraph(4, 2000, 64, 2, 7).Analyze().Stats(); st.SyncEdges == 0 {
		t.Errorf("(4, 2000, 64, 2, 7) fixture: %+v, want sync edges", st)
	}
	rep := DrawSchedule(8, 2000, 64, 1, 42).NewReplay()
	rep.To(2000)
	if st := rep.Graph.Analyze().Stats(); st.SyncEdges == 0 {
		t.Errorf("replayed schedule: %+v, want sync edges", st)
	}
}
