package faultinject

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// netRecorder is a server that logs every delivered body.
type netRecorder struct {
	mu     sync.Mutex
	bodies [][]byte
}

func (nr *netRecorder) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Read what arrives, even a truncated body: the prefix that made
		// it through a cut connection is exactly what we must observe.
		data, _ := io.ReadAll(r.Body)
		nr.mu.Lock()
		nr.bodies = append(nr.bodies, data)
		nr.mu.Unlock()
		w.WriteHeader(http.StatusOK)
	})
}

func (nr *netRecorder) deliveries() [][]byte {
	nr.mu.Lock()
	defer nr.mu.Unlock()
	return append([][]byte(nil), nr.bodies...)
}

func post(t *testing.T, c *http.Client, url string, body []byte) error {
	t.Helper()
	resp, err := c.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	return err
}

func TestNetDisconnectDeliversPrefixThenErrors(t *testing.T) {
	nr := &netRecorder{}
	ts := httptest.NewServer(nr.handler())
	defer ts.Close()
	in := New(Schedule{Rules: []Rule{{Point: NetDisconnect, Count: 1}}})
	c := &http.Client{Transport: in.WrapRoundTripper(nil)}
	body := bytes.Repeat([]byte("frame"), 100)

	if err := post(t, c, ts.URL, body); !errors.Is(err, ErrInjected) {
		t.Fatalf("first post err = %v, want injected disconnect", err)
	}
	// The retry goes through untouched.
	if err := post(t, c, ts.URL, body); err != nil {
		t.Fatal(err)
	}
	// The server records a body only once its read returns, and the cut
	// connection's read may return after the retry's handler has finished:
	// wait for both, and take them in either order.
	var got [][]byte
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if got = nr.deliveries(); len(got) >= 2 || time.Now().After(deadline) {
			break
		}
	}
	if len(got) != 2 {
		t.Fatalf("server saw %d deliveries, want 2 (cut prefix + retry)", len(got))
	}
	cut, whole := got[0], got[1]
	if len(cut) > len(whole) {
		cut, whole = whole, cut
	}
	if len(cut) >= len(body) || !bytes.HasPrefix(body, cut) {
		t.Fatalf("cut delivery carried %d bytes, want a strict prefix of %d", len(cut), len(body))
	}
	if !bytes.Equal(whole, body) {
		t.Fatal("retry body corrupted")
	}
}

func TestNetDuplicateDeliversTwice(t *testing.T) {
	nr := &netRecorder{}
	ts := httptest.NewServer(nr.handler())
	defer ts.Close()
	in := New(Schedule{Rules: []Rule{{Point: NetDuplicate, Count: 1}}})
	c := &http.Client{Transport: in.WrapRoundTripper(nil)}
	body := []byte("hello frames")

	if err := post(t, c, ts.URL, body); err != nil {
		t.Fatal(err)
	}
	got := nr.deliveries()
	if len(got) != 2 || !bytes.Equal(got[0], body) || !bytes.Equal(got[1], body) {
		t.Fatalf("server saw %d deliveries, want the same body twice", len(got))
	}
}

func TestNetReorderDeliversStaleAfterNext(t *testing.T) {
	nr := &netRecorder{}
	ts := httptest.NewServer(nr.handler())
	defer ts.Close()
	in := New(Schedule{Rules: []Rule{{Point: NetReorder, Count: 1}}})
	c := &http.Client{Transport: in.WrapRoundTripper(nil)}

	first, second := []byte("first-batch"), []byte("second-batch")
	if err := post(t, c, ts.URL, first); !errors.Is(err, ErrInjected) {
		t.Fatalf("reordered post err = %v, want injected", err)
	}
	if err := post(t, c, ts.URL, second); err != nil {
		t.Fatal(err)
	}
	got := nr.deliveries()
	if len(got) != 2 || !bytes.Equal(got[0], second) || !bytes.Equal(got[1], first) {
		t.Fatalf("deliveries = %q, want newer first then the stale one", got)
	}
}

func TestNetSlowStillDelivers(t *testing.T) {
	nr := &netRecorder{}
	ts := httptest.NewServer(nr.handler())
	defer ts.Close()
	in := New(Schedule{Rules: []Rule{{Point: NetSlow}}})
	c := &http.Client{Transport: in.WrapRoundTripper(nil)}
	if err := post(t, c, ts.URL, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if n := in.Fired(NetSlow); n == 0 {
		t.Fatal("net-slow never fired")
	}
	if got := nr.deliveries(); len(got) != 1 || !bytes.Equal(got[0], []byte("x")) {
		t.Fatalf("deliveries = %q", got)
	}
}
