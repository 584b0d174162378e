package mpi

import (
	"sync"
	"testing"
	"time"
)

func TestSendRecvFIFO(t *testing.T) {
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < 100; i++ {
				if err := c.Send(1, 7, i); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < 100; i++ {
			m, err := c.Recv(0, 7)
			if err != nil {
				return err
			}
			if m.Data.(int) != i {
				t.Errorf("out of order: got %v want %d", m.Data, i)
			}
			if m.Source != 0 || m.Tag != 7 {
				t.Errorf("bad envelope %+v", m)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAnySourceRecv(t *testing.T) {
	w, _ := NewWorld(4)
	var mu sync.Mutex
	seen := map[int]bool{}
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < 3; i++ {
				m, err := c.Recv(AnySource, AnyTag)
				if err != nil {
					return err
				}
				mu.Lock()
				seen[m.Source] = true
				mu.Unlock()
			}
			return nil
		}
		return c.Send(0, c.Rank(), "hello")
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 {
		t.Fatalf("expected messages from 3 ranks, got %v", seen)
	}
}

func TestTagFiltering(t *testing.T) {
	w, _ := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			// Send tag 2 first, then tag 1; receiver asks for tag 1 first.
			if err := c.Send(1, 2, "second"); err != nil {
				return err
			}
			return c.Send(1, 1, "first")
		}
		m1, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		m2, err := c.Recv(0, 2)
		if err != nil {
			return err
		}
		if m1.Data != "first" || m2.Data != "second" {
			t.Errorf("tag filtering broken: %v %v", m1.Data, m2.Data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcast(t *testing.T) {
	w, _ := NewWorld(5)
	var mu sync.Mutex
	got := map[int]any{}
	err := w.Run(func(c *Comm) error {
		var data any
		if c.Rank() == 2 {
			data = "payload"
		}
		v, err := c.Bcast(2, data)
		if err != nil {
			return err
		}
		mu.Lock()
		got[c.Rank()] = v
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 5; r++ {
		if got[r] != "payload" {
			t.Errorf("rank %d got %v", r, got[r])
		}
	}
}

func TestGather(t *testing.T) {
	w, _ := NewWorld(4)
	var result []any
	err := w.Run(func(c *Comm) error {
		vals, err := c.Gather(0, c.Rank()*10)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			result = vals
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		if result[r] != r*10 {
			t.Errorf("gather[%d] = %v, want %d", r, result[r], r*10)
		}
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	w, _ := NewWorld(8)
	var before, after sync.WaitGroup
	before.Add(8)
	counter := 0
	var mu sync.Mutex
	err := w.Run(func(c *Comm) error {
		mu.Lock()
		counter++
		mu.Unlock()
		before.Done()
		if err := c.Barrier(); err != nil {
			return err
		}
		// After the barrier every rank must observe all 8 increments.
		mu.Lock()
		n := counter
		mu.Unlock()
		if n != 8 {
			t.Errorf("barrier did not synchronize: counter=%d", n)
		}
		return nil
	})
	after.Wait()
	if err != nil {
		t.Fatal(err)
	}
}

func TestAbortUnblocksReceivers(t *testing.T) {
	w, _ := NewWorld(2)
	done := make(chan error, 1)
	comm, _ := w.CommForRank(0)
	go func() {
		_, err := comm.Recv(AnySource, AnyTag)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	w.Abort()
	select {
	case err := <-done:
		if err != ErrAborted {
			t.Fatalf("got %v, want ErrAborted", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock after Abort")
	}
}

func TestInvalidWorldAndRank(t *testing.T) {
	if _, err := NewWorld(0); err == nil {
		t.Error("expected error for size 0")
	}
	w, _ := NewWorld(2)
	if _, err := w.CommForRank(5); err == nil {
		t.Error("expected error for out-of-range rank")
	}
	c, _ := w.CommForRank(0)
	if err := c.Send(9, 0, nil); err == nil {
		t.Error("expected error for send to invalid rank")
	}
}

func TestProbe(t *testing.T) {
	w, _ := NewWorld(2)
	c0, _ := w.CommForRank(0)
	c1, _ := w.CommForRank(1)
	if c1.Probe(AnySource, AnyTag) {
		t.Error("probe should be false on empty mailbox")
	}
	if err := c0.Send(1, 3, "x"); err != nil {
		t.Fatal(err)
	}
	if !c1.Probe(0, 3) {
		t.Error("probe should see the message")
	}
	if c1.Probe(0, 99) {
		t.Error("probe should filter by tag")
	}
	// message still receivable after probe
	m, err := c1.Recv(0, 3)
	if err != nil || m.Data != "x" {
		t.Fatalf("recv after probe failed: %v %v", m, err)
	}
}

// Taking a message off a long mailbox moves nothing but the skipped
// prefix: draining 10k queued messages allocates nothing, and a tag
// matched past the head leaves the rest in send order.
func TestRecvTakesFromLongMailboxInPlace(t *testing.T) {
	w, _ := NewWorld(2)
	src, _ := w.CommForRank(0)
	dst, _ := w.CommForRank(1)
	const n = 10000
	for i := 0; i < n; i++ {
		if err := src.Send(1, 1, i); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	allocs := testing.AllocsPerRun(n-1, func() {
		m, err := dst.Recv(AnySource, 1)
		if err != nil || m.Data != next {
			t.Fatalf("Recv = %v, %v; want %d", m.Data, err, next)
		}
		next++
	})
	if allocs != 0 {
		t.Errorf("Recv allocates %.2f times per message, want 0", allocs)
	}

	for i, tag := range []int{1, 1, 2, 1} {
		if err := src.Send(1, tag, i); err != nil {
			t.Fatal(err)
		}
	}
	if m, _ := dst.Recv(0, 2); m.Data != 2 {
		t.Fatalf("tag 2: got %v, want 2", m.Data)
	}
	for _, want := range []int{0, 1, 3} {
		if m, _ := dst.Recv(0, 1); m.Data != want {
			t.Fatalf("tag 1: got %v, want %d", m.Data, want)
		}
	}
}
