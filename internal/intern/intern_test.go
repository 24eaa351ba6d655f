package intern

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func TestInternRoundTrip(t *testing.T) {
	in := New()
	a := in.Intern("alpha")
	b := in.Intern("beta")
	if a == b {
		t.Fatalf("distinct strings share id %d", a)
	}
	if got := in.Intern("alpha"); got != a {
		t.Errorf("re-intern alpha: got %d, want %d", got, a)
	}
	if got := in.Name(a); got != "alpha" {
		t.Errorf("Name(%d) = %q, want alpha", a, got)
	}
	if got := in.Name(99); got != "" {
		t.Errorf("Name(unassigned) = %q, want empty", got)
	}
	if id, ok := in.Find("beta"); !ok || id != b {
		t.Errorf("Find(beta) = %d,%v, want %d,true", id, ok, b)
	}
	if _, ok := in.Find("gamma"); ok {
		t.Error("Find(gamma) found an uninterned string")
	}
}

// TestView: a view is the table's prefix, capped at the table, and
// never changes as the table grows; Len counts every intern.
func TestView(t *testing.T) {
	in := New()
	for i := 0; i < 5; i++ {
		in.Intern(fmt.Sprintf("s%d", i))
	}
	if got := in.View(99); !reflect.DeepEqual(got, in.Snapshot()) || in.Len() != 5 {
		t.Errorf("View(beyond) = %v, Len %d; want the full table of 5", got, in.Len())
	}
	v := in.View(3)
	if want := []string{"s0", "s1", "s2"}; !reflect.DeepEqual(v, want) {
		t.Errorf("View(3) = %v, want %v", v, want)
	}
	in.Intern("s5")
	if want := []string{"s0", "s1", "s2"}; !reflect.DeepEqual(v, want) || in.Len() != 6 || in.View(6)[5] != "s5" {
		t.Errorf("after an intern: View(3) = %v, Len %d; want %v and 6", v, in.Len(), want)
	}
	if cap(v) != 3 {
		t.Errorf("View(3) has capacity %d: an append to it would write the table", cap(v))
	}
}

// TestViewConcurrent interns from several goroutines while each reads
// views of the length Len reports, which must hold interned strings.
func TestViewConcurrent(t *testing.T) {
	in := New()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				in.Intern(fmt.Sprintf("w%d-%d", w, i%50))
				n := in.Len()
				if v := in.View(n); len(v) != n || v[n-1] == "" {
					t.Errorf("View(Len() = %d) has %d strings, the last %q", n, len(v), v[len(v)-1])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if in.Len() != 200 {
		t.Errorf("Len = %d, want 200", in.Len())
	}
}
