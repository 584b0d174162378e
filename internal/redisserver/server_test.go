package redisserver

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"laminar/internal/redisclient"
	"laminar/internal/resp"
)

func startServer(t *testing.T) (*Server, *redisclient.Client) {
	t.Helper()
	s := New()
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
	return s, c
}

func TestPingEcho(t *testing.T) {
	_, c := startServer(t)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	v, err := c.Do("ECHO", "hello")
	if err != nil || v.Str != "hello" {
		t.Fatalf("echo: %v %v", v, err)
	}
}

func TestStringCommands(t *testing.T) {
	_, c := startServer(t)
	if err := c.Set("k", "v1"); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("k")
	if err != nil || got != "v1" {
		t.Fatalf("get: %q %v", got, err)
	}
	if _, err := c.Get("missing"); err != redisclient.ErrNil {
		t.Fatalf("expected ErrNil, got %v", err)
	}
	n, err := c.Del("k", "missing")
	if err != nil || n != 1 {
		t.Fatalf("del: %d %v", n, err)
	}
	for i := 0; i < 5; i++ {
		if _, err := c.Incr("ctr"); err != nil {
			t.Fatal(err)
		}
	}
	got, _ = c.Get("ctr")
	if got != "5" {
		t.Fatalf("incr: %q", got)
	}
}

func TestListCommands(t *testing.T) {
	_, c := startServer(t)
	if _, err := c.RPush("q", "a", "b", "c"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.LPush("q", "z"); err != nil {
		t.Fatal(err)
	}
	n, _ := c.LLen("q")
	if n != 4 {
		t.Fatalf("llen = %d", n)
	}
	v, err := c.Do("LRANGE", "q", "0", "-1")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"z", "a", "b", "c"}
	for i, item := range v.Array {
		if item.Str != want[i] {
			t.Errorf("lrange[%d] = %q want %q", i, item.Str, want[i])
		}
	}
	// LPOP drains in order
	got1, _ := c.Do("LPOP", "q")
	got2, _ := c.Do("RPOP", "q")
	if got1.Str != "z" || got2.Str != "c" {
		t.Errorf("pop: %q %q", got1.Str, got2.Str)
	}
}

func TestBLPopBlocksUntilPush(t *testing.T) {
	s, c := startServer(t)
	addr := s.Addr()
	done := make(chan string, 1)
	go func() {
		c2, err := redisclient.Dial(addr)
		if err != nil {
			done <- "dial-error"
			return
		}
		defer c2.Close()
		_, v, err := c2.BLPop(5*time.Second, "waitq")
		if err != nil {
			done <- "err:" + err.Error()
			return
		}
		done <- v
	}()
	time.Sleep(30 * time.Millisecond) // let the consumer block
	if _, err := c.RPush("waitq", "payload"); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-done:
		if v != "payload" {
			t.Fatalf("got %q", v)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("BLPOP did not unblock")
	}
}

func TestBLPopTimeout(t *testing.T) {
	_, c := startServer(t)
	start := time.Now()
	_, _, err := c.BLPop(50*time.Millisecond, "emptyq")
	if err != redisclient.ErrNil {
		t.Fatalf("expected ErrNil, got %v", err)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("returned too early: %v", elapsed)
	}
}

func TestHashCommands(t *testing.T) {
	_, c := startServer(t)
	if err := c.HSet("h", "f1", "v1"); err != nil {
		t.Fatal(err)
	}
	if err := c.HSet("h", "f2", "v2"); err != nil {
		t.Fatal(err)
	}
	got, err := c.HGet("h", "f1")
	if err != nil || got != "v1" {
		t.Fatalf("hget: %q %v", got, err)
	}
	all, err := c.HGetAll("h")
	if err != nil || len(all) != 2 || all["f2"] != "v2" {
		t.Fatalf("hgetall: %v %v", all, err)
	}
	if _, err := c.HGet("h", "nope"); err != redisclient.ErrNil {
		t.Fatalf("expected ErrNil, got %v", err)
	}
}

func TestConcurrentProducersConsumers(t *testing.T) {
	s, _ := startServer(t)
	addr := s.Addr()
	const producers, consumers, itemsPer = 4, 4, 50
	var wg sync.WaitGroup
	results := make(chan string, producers*itemsPer)
	for i := 0; i < consumers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := redisclient.Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for {
				_, v, err := c.BLPop(300*time.Millisecond, "jobs")
				if err != nil {
					return // timed out: queue drained
				}
				results <- v
			}
		}()
	}
	for i := 0; i < producers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := redisclient.Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for j := 0; j < itemsPer; j++ {
				if _, err := c.RPush("jobs", fmt.Sprintf("p%d-%d", id, j)); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(results)
	seen := map[string]bool{}
	for v := range results {
		if seen[v] {
			t.Errorf("duplicate delivery: %s", v)
		}
		seen[v] = true
	}
	if len(seen) != producers*itemsPer {
		t.Fatalf("delivered %d items, want %d", len(seen), producers*itemsPer)
	}
}

func TestUnknownCommandAndArity(t *testing.T) {
	s := New()
	v := s.Dispatch([]string{"NOSUCH"})
	if !v.IsError() {
		t.Error("expected error for unknown command")
	}
	v = s.Dispatch([]string{"SET", "only-key"})
	if !v.IsError() {
		t.Error("expected arity error")
	}
	v = s.Dispatch([]string{"GET"})
	if !v.IsError() {
		t.Error("expected arity error for GET")
	}
}

func TestKeysAndFlush(t *testing.T) {
	s := New()
	s.Dispatch([]string{"SET", "a", "1"})
	s.Dispatch([]string{"RPUSH", "b", "x"})
	s.Dispatch([]string{"HSET", "c", "f", "v"})
	v := s.Dispatch([]string{"KEYS", "*"})
	if len(v.Array) != 3 {
		t.Fatalf("keys: %v", v)
	}
	if v.Array[0].Str != "a" || v.Array[1].Str != "b" || v.Array[2].Str != "c" {
		t.Fatalf("keys not sorted: %v", v.Array)
	}
	s.Dispatch([]string{"FLUSHALL"})
	v = s.Dispatch([]string{"KEYS", "*"})
	if len(v.Array) != 0 {
		t.Fatalf("flush failed: %v", v)
	}
}

func TestExists(t *testing.T) {
	s := New()
	if v := s.Dispatch([]string{"EXISTS", "nope"}); v.Int != 0 {
		t.Error("exists on missing key")
	}
	s.Dispatch([]string{"SET", "k", "v"})
	if v := s.Dispatch([]string{"EXISTS", "k"}); v.Int != 1 {
		t.Error("exists on present key")
	}
}

func TestRESPRoundTrip(t *testing.T) {
	vals := []resp.Value{
		resp.Simple("OK"),
		resp.Err("ERR boom"),
		resp.Integer(-42),
		resp.Bulk("hello\r\nworld"),
		resp.NullBulk(),
		resp.Array(resp.Bulk("a"), resp.Integer(1), resp.Array(resp.Bulk("nested"))),
		resp.NullArray(),
	}
	var buf writerBuffer
	w := resp.NewWriter(&buf)
	for _, v := range vals {
		if err := w.Write(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := resp.NewReader(&buf)
	for i, want := range vals {
		got, err := r.Read()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got.Type != want.Type || got.Str != want.Str || got.Int != want.Int || got.Null != want.Null || len(got.Array) != len(want.Array) {
			t.Errorf("round trip %d: got %+v want %+v", i, got, want)
		}
	}
}

// writerBuffer is a minimal io.ReadWriter for protocol round trips.
type writerBuffer struct {
	data []byte
}

func (b *writerBuffer) Write(p []byte) (int, error) {
	b.data = append(b.data, p...)
	return len(p), nil
}

func (b *writerBuffer) Read(p []byte) (int, error) {
	if len(b.data) == 0 {
		return 0, fmt.Errorf("EOF")
	}
	n := copy(p, b.data)
	b.data = b.data[n:]
	return n, nil
}

// A blocked pop waits on its own keys only: a push to another key leaves
// it parked, and neither a served nor an expired pop stays registered.
func TestBLPopWaitsOnItsOwnKeys(t *testing.T) {
	s, c := startServer(t)
	c2, err := redisclient.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	got := make(chan string, 1)
	go func() {
		_, v, err := c2.BLPop(5*time.Second, "mine")
		if err != nil {
			v = "err:" + err.Error()
		}
		got <- v
	}()
	for waiting := 0; waiting == 0; time.Sleep(time.Millisecond) {
		s.mu.Lock()
		waiting = len(s.waiting["mine"])
		s.mu.Unlock()
	}
	if _, err := c.RPush("other", "x"); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-got:
		t.Fatalf("a push to another key served the pop: %q", v)
	case <-time.After(20 * time.Millisecond):
	}
	if _, err := c.RPush("mine", "payload"); err != nil {
		t.Fatal(err)
	}
	if v := <-got; v != "payload" {
		t.Fatalf("got %q, want payload", v)
	}
	if _, _, err := c.BLPop(10*time.Millisecond, "empty"); err != redisclient.ErrNil {
		t.Fatalf("expected ErrNil, got %v", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.waiting) != 0 {
		t.Errorf("waiters left registered: %v", s.waiting)
	}
}
