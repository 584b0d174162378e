// Package mpi is a simulated Message Passing Interface. dispel4py's MPI
// mapping enacts workflows over mpi4py ranks; this package provides the
// substitution: a World of N ranks backed by in-memory mailboxes, with the
// point-to-point and collective operations the dataflow MPI mapping needs
// (Send, Recv with tag matching and MPI_ANY_SOURCE semantics, Bcast, Barrier,
// Gather). Each rank runs as a goroutine; message order between a fixed
// (source, dest, tag) triple is FIFO, as MPI guarantees.
package mpi

import (
	"errors"
	"fmt"
	"sync"
)

// AnySource matches messages from any rank in Recv.
const AnySource = -1

// AnyTag matches messages with any tag in Recv.
const AnyTag = -1

// ErrAborted is returned by operations after the world is aborted.
var ErrAborted = errors.New("mpi: world aborted")

// Message is a delivered message with its envelope.
type Message struct {
	Source int
	Tag    int
	Data   any
}

// World is a set of communicating ranks (the simulated MPI_COMM_WORLD).
type World struct {
	size int
	mu   sync.Mutex
	// arrived[r] wakes rank r's Recv when its mailbox gains a message;
	// space wakes senders parked on a full mailbox. A send or receive
	// wakes only the goroutines waiting for what it changed.
	arrived []*sync.Cond
	space   *sync.Cond
	queues  [][]Message // per-destination mailbox
	aborted bool
	// queueCap bounds each mailbox (0 = unbounded). Senders block while a
	// destination mailbox is full, like MPI's synchronous-mode send under
	// receiver pressure.
	queueCap int
	// onBlocked, when set, is called once per Send that has to wait for
	// mailbox space (telemetry hook; called without the world lock held).
	onBlocked func(dest int)

	barrierMu    sync.Mutex
	barrierCond  *sync.Cond
	barrierCount int
	barrierGen   int
}

// SetQueueCap bounds every rank's mailbox to cap messages (0 restores the
// unbounded default). Must be called before Run starts the ranks.
func (w *World) SetQueueCap(cap int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if cap < 0 {
		cap = 0
	}
	w.queueCap = cap
}

// SetBlockedHook installs fn, called once per Send that parks on a full
// mailbox. Must be called before Run starts the ranks.
func (w *World) SetBlockedHook(fn func(dest int)) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.onBlocked = fn
}

// NewWorld creates a world with the given number of ranks.
func NewWorld(size int) (*World, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mpi: world size must be positive, got %d", size)
	}
	w := &World{size: size, queues: make([][]Message, size), arrived: make([]*sync.Cond, size)}
	for r := range w.arrived {
		w.arrived[r] = sync.NewCond(&w.mu)
	}
	w.space = sync.NewCond(&w.mu)
	w.barrierCond = sync.NewCond(&w.barrierMu)
	return w, nil
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Abort wakes all blocked ranks with ErrAborted.
func (w *World) Abort() {
	w.mu.Lock()
	w.aborted = true
	w.mu.Unlock()
	for _, c := range w.arrived {
		c.Broadcast()
	}
	w.space.Broadcast()
	w.barrierMu.Lock()
	w.barrierMu.Unlock()
	w.barrierCond.Broadcast()
}

// Comm is a rank's handle onto the world.
type Comm struct {
	world *World
	rank  int
}

// Rank returns this communicator's rank id.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.size }

// CommForRank returns the communicator for a rank.
func (w *World) CommForRank(rank int) (*Comm, error) {
	if rank < 0 || rank >= w.size {
		return nil, fmt.Errorf("mpi: rank %d out of range [0,%d)", rank, w.size)
	}
	return &Comm{world: w, rank: rank}, nil
}

// Send delivers data to dest with a tag. Sends are buffered (asynchronous),
// matching MPI's standard-mode send for small messages — unless the world
// has a queue cap, in which case a send to a full mailbox blocks until the
// receiver drains (or the world aborts).
func (c *Comm) Send(dest, tag int, data any) error {
	w := c.world
	if dest < 0 || dest >= w.size {
		return fmt.Errorf("mpi: send to invalid rank %d", dest)
	}
	w.mu.Lock()
	blocked := false
	for w.queueCap > 0 && len(w.queues[dest]) >= w.queueCap && !w.aborted {
		if !blocked {
			blocked = true
			if hook := w.onBlocked; hook != nil {
				w.mu.Unlock()
				hook(dest)
				w.mu.Lock()
				continue
			}
		}
		w.space.Wait()
	}
	defer w.mu.Unlock()
	if w.aborted {
		return ErrAborted
	}
	w.queues[dest] = append(w.queues[dest], Message{Source: c.rank, Tag: tag, Data: data})
	w.arrived[dest].Broadcast()
	return nil
}

// Recv blocks until a message matching (source, tag) arrives. Use AnySource /
// AnyTag as wildcards. Messages from the same source with the same tag are
// received in send order.
func (c *Comm) Recv(source, tag int) (Message, error) {
	w := c.world
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		if w.aborted {
			return Message{}, ErrAborted
		}
		q := w.queues[c.rank]
		for i, m := range q {
			if (source == AnySource || m.Source == source) && (tag == AnyTag || m.Tag == tag) {
				// Shift the skipped prefix over the taken message and drop
				// the head: taking the first message is O(1), not a copy of
				// the mailbox.
				copy(q[1:i+1], q[:i])
				q[0] = Message{}
				w.queues[c.rank] = q[1:]
				if w.queueCap > 0 && len(q) >= w.queueCap {
					// Freed space in a full mailbox: wake parked senders.
					w.space.Broadcast()
				}
				return m, nil
			}
		}
		w.arrived[c.rank].Wait()
	}
}

// Probe reports whether a matching message is waiting, without receiving it.
func (c *Comm) Probe(source, tag int) bool {
	w := c.world
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, m := range w.queues[c.rank] {
		if (source == AnySource || m.Source == source) && (tag == AnyTag || m.Tag == tag) {
			return true
		}
	}
	return false
}

// Barrier blocks until every rank has entered the barrier.
func (c *Comm) Barrier() error {
	w := c.world
	w.barrierMu.Lock()
	defer w.barrierMu.Unlock()
	w.mu.Lock()
	aborted := w.aborted
	w.mu.Unlock()
	if aborted {
		return ErrAborted
	}
	gen := w.barrierGen
	w.barrierCount++
	if w.barrierCount == w.size {
		w.barrierCount = 0
		w.barrierGen++
		w.barrierCond.Broadcast()
		return nil
	}
	for gen == w.barrierGen {
		w.barrierCond.Wait()
		w.mu.Lock()
		aborted := w.aborted
		w.mu.Unlock()
		if aborted {
			return ErrAborted
		}
	}
	return nil
}

// bcastTag is a reserved tag for broadcast traffic.
const bcastTag = -1000

// Bcast broadcasts data from root to every rank. Every rank must call it;
// each receives the root's value.
func (c *Comm) Bcast(root int, data any) (any, error) {
	if c.rank == root {
		for r := 0; r < c.world.size; r++ {
			if r == root {
				continue
			}
			if err := c.Send(r, bcastTag, data); err != nil {
				return nil, err
			}
		}
		return data, nil
	}
	m, err := c.Recv(root, bcastTag)
	if err != nil {
		return nil, err
	}
	return m.Data, nil
}

// gatherTag is a reserved tag for gather traffic.
const gatherTag = -1001

// Gather collects each rank's contribution at root. The root receives a
// slice indexed by rank; other ranks receive nil.
func (c *Comm) Gather(root int, data any) ([]any, error) {
	if c.rank != root {
		if err := c.Send(root, gatherTag, gatherItem{Rank: c.rank, Data: data}); err != nil {
			return nil, err
		}
		return nil, nil
	}
	out := make([]any, c.world.size)
	out[root] = data
	for i := 0; i < c.world.size-1; i++ {
		m, err := c.Recv(AnySource, gatherTag)
		if err != nil {
			return nil, err
		}
		item := m.Data.(gatherItem)
		out[item.Rank] = item.Data
	}
	return out, nil
}

type gatherItem struct {
	Rank int
	Data any
}

// Run spawns fn on every rank and waits for completion, returning the first
// error (aborting the world so other ranks unblock).
func (w *World) Run(fn func(c *Comm) error) error {
	var wg sync.WaitGroup
	errCh := make(chan error, w.size)
	for r := 0; r < w.size; r++ {
		comm, err := w.CommForRank(r)
		if err != nil {
			return err
		}
		wg.Add(1)
		go func(c *Comm) {
			defer wg.Done()
			if err := fn(c); err != nil {
				errCh <- err
				w.Abort()
			}
		}(comm)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		if errors.Is(err, ErrAborted) {
			return err
		}
		return err
	default:
		return nil
	}
}
