package harness

import (
	"bytes"
	"slices"
	"testing"

	"github.com/repro/inspector/internal/core"
	"github.com/repro/inspector/internal/cpgfile"
	"github.com/repro/inspector/internal/cpgfile/cpgtest"
	"github.com/repro/inspector/internal/journal"
)

// TestCPGIdentityIsStrongerThanDocument is the mutation table behind
// comparing analyses by their .cpg bytes rather than by the analysis
// document (Analysis.ExportJSON: thread lengths and edges, which the
// equivalence links compared before). Each mutation is made on a
// private cpgfile.Load copy of one corpus recording (the thunk's, on the
// journal's recovery: a loaded graph keeps its thunks encoded) and
// rebuilt over the copy's own edge sections. The .cpg must change under
// every mutation; the document changes only under the edge mutations
// and is blind to the rest of what a CPG is — its read sets, clocks,
// thunks, virtual times, gaps and epoch.
func TestCPGIdentityIsStrongerThanDocument(t *testing.T) {
	r := corpus.get(t, "word_count", 4)
	orig := privateCopy(t, r.cpg)
	wantDoc, wantCPG := analysisDocument(t, orig), cpgtest.Bytes(t, orig)
	if unchanged := rebuilt(t, privateCopy(t, r.cpg)); !bytes.Equal(analysisDocument(t, unchanged), wantDoc) ||
		!bytes.Equal(cpgtest.Bytes(t, unchanged), wantCPG) {
		t.Fatal("rebuilding an unmutated copy changed it")
	}

	for _, m := range []struct {
		name    string
		docSees bool
		mutate  func(t *testing.T, a *core.Analysis) *core.Analysis
	}{
		{"drop a data edge", true, func(t *testing.T, a *core.Analysis) *core.Analysis {
			syncEdges, dataEdges := a.EdgeSections()
			return fromSections(t, a, a.Epoch(), syncEdges, dataEdges[1:])
		}},
		{"rename a sync edge's object", true, func(t *testing.T, a *core.Analysis) *core.Analysis {
			syncEdges, dataEdges := a.EdgeSections()
			i := slices.IndexFunc(syncEdges, func(e core.Edge) bool { return e.Object != syncEdges[0].Object })
			if i < 0 {
				t.Fatal("the recording syncs on one object only")
			}
			syncEdges[0].Object = syncEdges[i].Object
			slices.SortFunc(syncEdges, func(x, y core.Edge) int {
				switch {
				case core.EdgeCanonicalLess(&x, &y):
					return -1
				case core.EdgeCanonicalLess(&y, &x):
					return 1
				}
				return 0
			})
			return fromSections(t, a, a.Epoch(), syncEdges, dataEdges)
		}},
		{"add a gap", false, func(t *testing.T, a *core.Analysis) *core.Analysis {
			a.Graph().AddGap(0, core.Gap{FromAlpha: 0, ToAlpha: 1, Kind: core.GapAuxLoss, Bytes: 64})
			return rebuilt(t, a)
		}},
		{"one page of a vertex's read set", false, func(t *testing.T, a *core.Analysis) *core.Analysis {
			a.Subs()[0].ReadSet.Add(1 << 40)
			return rebuilt(t, a)
		}},
		{"one clock component", false, func(t *testing.T, a *core.Analysis) *core.Analysis {
			sc := a.Subs()[0]
			sc.Clock = sc.Clock.Copy()
			sc.Clock[0]++
			return rebuilt(t, a)
		}},
		{"one thunk's site", false, func(t *testing.T, loaded *core.Analysis) *core.Analysis {
			// A loaded copy keeps its control path as the file's encoded
			// column, so this mutation is made on the journal's recovery
			// instead, stamped with the loaded copy's epoch: the same graph,
			// its vertices carrying their thunks decoded. The first thunk
			// takes the site of the first thunk that ends elsewhere, on
			// whichever vertex.
			rep, err := journal.Recover(r.journal, journal.RecoverOptions{})
			if err != nil {
				t.Fatal(err)
			}
			syncEdges, dataEdges := rep.Analysis.EdgeSections()
			a := fromSections(t, rep.Analysis, loaded.Epoch(), syncEdges, dataEdges)
			if !bytes.Equal(cpgtest.Bytes(t, a), wantCPG) {
				t.Fatal("the journal's recovery is not the recording's .cpg")
			}
			var first *core.SubComputation
			var path []core.Thunk
			for _, sc := range a.Subs() {
				for _, th := range sc.Thunks {
					switch {
					case first == nil:
						first = sc
						for _, th := range sc.Thunks {
							path = append(path, th)
						}
					case th.Site != path[0].Site:
						path[0].Site = th.Site
						first.SetThunks(path)
						return rebuilt(t, a)
					}
				}
			}
			t.Fatal("every thunk of the recording ends at one site")
			return nil
		}},
		{"a vertex's Finish", false, func(t *testing.T, a *core.Analysis) *core.Analysis {
			a.Subs()[0].Finish++
			return rebuilt(t, a)
		}},
		{"the epoch", false, func(t *testing.T, a *core.Analysis) *core.Analysis {
			syncEdges, dataEdges := a.EdgeSections()
			return fromSections(t, a, a.Epoch()+1, syncEdges, dataEdges)
		}},
	} {
		t.Run(m.name, func(t *testing.T) {
			mutated := m.mutate(t, privateCopy(t, r.cpg))
			if bytes.Equal(cpgtest.Bytes(t, mutated), wantCPG) {
				t.Error(".cpg bytes missed the mutation")
			}
			if docSaw := !bytes.Equal(analysisDocument(t, mutated), wantDoc); docSaw != m.docSees {
				t.Errorf("the analysis document saw the mutation: %v, want %v", docSaw, m.docSees)
			}
		})
	}
}

// analysisDocument is what the equivalence links compared before .cpg
// bytes: Analysis.ExportJSON.
func analysisDocument(t *testing.T, a *core.Analysis) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := a.ExportJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// privateCopy loads the .cpg at path: an analysis over a graph nothing
// else holds, free to mutate.
func privateCopy(t *testing.T, path string) *core.Analysis {
	t.Helper()
	a, _, err := cpgfile.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// fromSections assembles an analysis at epoch over a's graph and the
// given edge sections.
func fromSections(t *testing.T, a *core.Analysis, epoch uint64, syncEdges, dataEdges []core.Edge) *core.Analysis {
	t.Helper()
	b, err := core.NewAnalysisFromSections(a.Graph(), a.ThreadLens(), epoch, syncEdges, dataEdges)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// rebuilt assembles a again over its graph, as mutated since, and its
// own edge sections.
func rebuilt(t *testing.T, a *core.Analysis) *core.Analysis {
	t.Helper()
	syncEdges, dataEdges := a.EdgeSections()
	return fromSections(t, a, a.Epoch(), syncEdges, dataEdges)
}
