package redisclient_test

import (
	"errors"
	"testing"
	"time"

	"laminar/internal/redisclient"
	"laminar/internal/redisserver"
)

// dial starts an in-process mini Redis server and connects a client to it;
// both are closed when the test ends, the client first.
func dial(t *testing.T) *redisclient.Client {
	t.Helper()
	s := redisserver.New()
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	c, err := redisclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestStringRoundTrips(t *testing.T) {
	c := dial(t)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("k", "v"); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Get("k"); err != nil || got != "v" {
		t.Fatalf("Get(k) = %q, %v; want v", got, err)
	}
	for want := int64(1); want <= 2; want++ {
		if got, err := c.Incr("n"); err != nil || got != want {
			t.Fatalf("Incr(n) = %d, %v; want %d", got, err, want)
		}
	}
	if got, err := c.Get("n"); err != nil || got != "2" {
		t.Fatalf("Get(n) = %q, %v; want 2", got, err)
	}
	if n, err := c.Del("k", "n", "absent"); err != nil || n != 2 {
		t.Fatalf("Del = %d, %v; want 2 of the 3 keys", n, err)
	}
	if _, err := c.Get("k"); !errors.Is(err, redisclient.ErrNil) {
		t.Fatalf("Get of a deleted key: %v, want ErrNil", err)
	}
}

func TestListRoundTrips(t *testing.T) {
	c := dial(t)
	if n, err := c.RPush("q", "b", "c"); err != nil || n != 2 {
		t.Fatalf("RPush = %d, %v; want 2", n, err)
	}
	if n, err := c.LPush("q", "a"); err != nil || n != 3 {
		t.Fatalf("LPush = %d, %v; want 3", n, err)
	}
	if n, err := c.LLen("q"); err != nil || n != 3 {
		t.Fatalf("LLen = %d, %v; want 3", n, err)
	}
	for _, want := range []string{"a", "b", "c"} {
		key, val, err := c.BLPop(time.Second, "other", "q")
		if err != nil || key != "q" || val != want {
			t.Fatalf("BLPop = (%q, %q, %v); want (q, %q)", key, val, err, want)
		}
	}
	if n, err := c.LLen("q"); err != nil || n != 0 {
		t.Fatalf("LLen after draining = %d, %v; want 0", n, err)
	}
}

func TestHashRoundTrips(t *testing.T) {
	c := dial(t)
	if err := c.HSet("h", "f", "v"); err != nil {
		t.Fatal(err)
	}
	if got, err := c.HGet("h", "f"); err != nil || got != "v" {
		t.Fatalf("HGet(h, f) = %q, %v; want v", got, err)
	}
	if _, err := c.HGet("h", "absent"); !errors.Is(err, redisclient.ErrNil) {
		t.Fatalf("HGet of a missing field: %v, want ErrNil", err)
	}
}

func TestNilReplies(t *testing.T) {
	c := dial(t)
	if got, err := c.Get("missing"); !errors.Is(err, redisclient.ErrNil) || got != "" {
		t.Fatalf("Get(missing) = %q, %v; want ErrNil", got, err)
	}
	start := time.Now()
	if _, _, err := c.BLPop(50*time.Millisecond, "empty"); !errors.Is(err, redisclient.ErrNil) {
		t.Fatalf("BLPop on an empty list: %v, want ErrNil at the timeout", err)
	}
	if waited := time.Since(start); waited < 40*time.Millisecond {
		t.Fatalf("BLPop returned after %v, before its 50ms timeout", waited)
	}
	// The connection still serves after a timed-out pop.
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestErrorReplySurfaces(t *testing.T) {
	c := dial(t)
	if err := c.Set("word", "abc"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Incr("word"); err == nil || errors.Is(err, redisclient.ErrNil) {
		t.Fatalf("Incr of a non-integer: %v, want the server's error reply", err)
	}
	if _, err := c.Do("NOSUCHCOMMAND"); err == nil {
		t.Fatal("an unknown command returned no error")
	}
	if got, err := c.Get("word"); err != nil || got != "abc" {
		t.Fatalf("Get after error replies = %q, %v; want abc", got, err)
	}
}

func TestDoOnClosedConnection(t *testing.T) {
	c := dial(t)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Do("PING")
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Do on a closed connection returned no error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Do on a closed connection hung")
	}
}
