package core

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// TestShardLogChunks holds a log's runs, elements and lengths to a
// plain slice across chunk boundaries: pushed one by one, adopted whole
// and then pushed past the adopted run's short last chunk.
func TestShardLogChunks(t *testing.T) {
	for _, adopt := range []int{0, 1, 7, 8, 9, 23, 24, 25, 100} {
		var l shardLog[int]
		var want []int
		run := make([]int, adopt)
		for i := range run {
			run[i] = i
		}
		l.pushRun(run)
		want = append(want, run...)
		for i := adopt; i < 300; i++ {
			l.push(i)
			want = append(want, i)
		}
		if l.Len() != len(want) {
			t.Fatalf("adopt %d: Len %d, want %d", adopt, l.Len(), len(want))
		}
		for lo := 0; lo <= len(want); lo += 13 {
			for hi := lo; hi <= len(want); hi += 29 {
				if got := l.appendTo(nil, lo, hi); !slices.Equal(got, want[lo:hi]) {
					t.Fatalf("adopt %d: [%d, %d) = %v, want %v", adopt, lo, hi, got, want[lo:hi])
				}
			}
		}
		for i, v := range want {
			if got := l.at(i); got != v {
				t.Fatalf("adopt %d: at(%d) = %d, want %d", adopt, i, got, v)
			}
		}
		for i := range run {
			if run[i] != i {
				t.Fatalf("adopt %d: the adopted run was written at %d", adopt, i)
			}
		}
	}
}

// TestShardLogsReadWithoutLock races eight recording threads, each
// appending vertices, sync-log entries and gaps to its own shard,
// against readers that take no lock: they load a log's published
// length at random moments and read below it. Every read must be a
// prefix of what the finished graph holds. It is meant for -race.
func TestShardLogsReadWithoutLock(t *testing.T) {
	const threads, n, maxRun = 8, 2000, 64
	g := NewGraph(threads)
	obj := g.InternObject("m")
	var writers sync.WaitGroup
	for th := range threads {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for a := range n {
				id := SubID{Thread: th, Alpha: uint64(a)}
				if a%3 == 0 {
					g.addSyncEdge(SubID{Thread: (th + 1) % threads, Alpha: uint64(a)}, id, obj)
				}
				if a%7 == 0 {
					g.AddGap(th, Gap{FromAlpha: uint64(a), ToAlpha: uint64(a), Kind: GapAuxLoss, Bytes: uint64(a)})
				}
				if err := g.add(&SubComputation{ID: id, Instructions: uint64(a)}); err != nil {
					t.Error(err)
					return
				}
				if a%64 == 0 {
					runtime.Gosched() // let the readers in mid-growth
				}
			}
		}()
	}

	// read is one lock-free read: thread t's elements [lo, lo+len) of
	// each log.
	type read struct {
		t, subsLo, syncLo, gapsLo int
		subs                      []*SubComputation
		sync                      []DeltaSyncEdge
		gaps                      []Gap
	}
	span := func(r *rand.Rand, n int) (lo, hi int) {
		lo = r.Intn(n + 1)
		return lo, lo + r.Intn(min(maxRun, n-lo)+1)
	}
	done := make(chan struct{})
	reads := make([][]read, 2)
	var readers sync.WaitGroup
	for i := range reads {
		readers.Add(1)
		go func() {
			defer readers.Done()
			r := rand.New(rand.NewSource(int64(i)))
			for k := 0; ; k++ {
				select {
				case <-done:
					return
				default:
				}
				rd := read{t: r.Intn(threads)}
				sh := &g.shards[rd.t]
				lo, hi := span(r, sh.seq.Len())
				rd.subsLo, rd.subs = lo, sh.seq.appendTo(nil, lo, hi)
				lo, hi = span(r, sh.syncEdges.Len())
				rd.syncLo, rd.sync = lo, sh.syncEdges.appendTo(nil, lo, hi)
				lo, hi = span(r, sh.gaps.Len())
				rd.gapsLo, rd.gaps = lo, sh.gaps.appendTo(nil, lo, hi)
				if len(reads[i]) < 4096 {
					reads[i] = append(reads[i], rd)
				}
				// The graph's own readers take no lock either.
				for a, sc := range g.ThreadSeq(rd.t) {
					if sc.ID != (SubID{Thread: rd.t, Alpha: uint64(a)}) {
						t.Errorf("ThreadSeq(%d)[%d] is %v", rd.t, a, sc.ID)
						return
					}
				}
				if k%64 == 0 {
					g.SyncEdges()
					g.Gaps()
				}
			}
		}()
	}
	writers.Wait()
	close(done)
	readers.Wait()

	for th := range threads {
		sh := &g.shards[th]
		if sh.seq.Len() != n || sh.syncEdges.Len() != (n+2)/3 || sh.gaps.Len() != (n+6)/7 {
			t.Fatalf("thread %d logs hold %d, %d and %d, want %d, %d and %d",
				th, sh.seq.Len(), sh.syncEdges.Len(), sh.gaps.Len(), n, (n+2)/3, (n+6)/7)
		}
	}
	total := 0
	for _, rs := range reads {
		for _, rd := range rs {
			sh := &g.shards[rd.t]
			if want := sh.seq.appendTo(nil, rd.subsLo, rd.subsLo+len(rd.subs)); !slices.Equal(rd.subs, want) {
				t.Fatalf("thread %d vertices from %d read %v, the graph holds %v", rd.t, rd.subsLo, rd.subs, want)
			}
			if want := sh.syncEdges.appendTo(nil, rd.syncLo, rd.syncLo+len(rd.sync)); !slices.Equal(rd.sync, want) {
				t.Fatalf("thread %d sync entries from %d read %v, the graph holds %v", rd.t, rd.syncLo, rd.sync, want)
			}
			if want := sh.gaps.appendTo(nil, rd.gapsLo, rd.gapsLo+len(rd.gaps)); !slices.Equal(rd.gaps, want) {
				t.Fatalf("thread %d gaps from %d read %v, the graph holds %v", rd.t, rd.gapsLo, rd.gaps, want)
			}
			total += len(rd.subs) + len(rd.sync) + len(rd.gaps)
		}
	}
	if total == 0 {
		t.Fatal("the readers read nothing while the graph grew")
	}
}
