package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"laminar/internal/core"
)

// outcome is what one sent op came to.
type outcome struct {
	OK      bool // 2xx reply, no transport error
	Correct bool // reply matched the op's reference
	Bytes   int  // reply body size
}

// sendFunc performs one op on behalf of a sender and judges the reply.
// The load phases know nothing of HTTP; tests drive them with stubs.
type sendFunc func(sender int, op *Op) outcome

// sample is one op's record in a phase.
type sample struct {
	Index   int // position in the op stream
	Class   string
	Latency time.Duration // open loop: from the instant the op was due
	outcome
}

// phaseResult is everything one load phase observed.
type phaseResult struct {
	Samples []sample
	Elapsed time.Duration
	// Lateness holds, for each op a sender was already waiting for when it
	// became due, how long after that instant the sender woke: the
	// generator's own lag, free of any stall the server caused.
	Lateness []time.Duration
	// StartDelay holds, in op order, every op's gap between due and
	// actually sent; it is the open-loop backlog expressed in time.
	StartDelay []time.Duration
	// Exhausted reports a closed-loop phase that ran out of generated ops.
	Exhausted bool
}

// openLoop sends ops[0:n] on a fixed schedule, op i due at i/rate after
// the start, from `senders` goroutines. A sender that is free waits for
// the next op's due time; one that was busy sends at once, and the op's
// latency still counts from its due time, so a stall is charged to every
// op that came due during it.
func openLoop(ops []Op, first int, rate float64, dur time.Duration, senders int, send sendFunc) phaseResult {
	n := int(rate * dur.Seconds())
	if first+n > len(ops) {
		n = len(ops) - first
	}
	interval := time.Duration(float64(time.Second) / rate)
	var next atomic.Int64
	type local struct {
		samples  []sample
		lateness []time.Duration
	}
	locals := make([]local, senders)
	startDelay := make([]time.Duration, n) // by op; each written by the one sender that took the op
	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			l := &locals[s]
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if time.Until(due) > 0 {
					sleepUntil(due)
					l.lateness = append(l.lateness, time.Since(due))
				}
				startDelay[i] = time.Since(due)
				op := &ops[first+i]
				out := send(s, op)
				l.samples = append(l.samples, sample{Index: first + i, Class: op.Class, Latency: time.Since(due), outcome: out})
			}
		}(s)
	}
	wg.Wait()
	res := phaseResult{Elapsed: time.Since(start), StartDelay: startDelay}
	for _, l := range locals {
		res.Samples = append(res.Samples, l.samples...)
		res.Lateness = append(res.Lateness, l.lateness...)
	}
	return res
}

// sleepUntil blocks the calling goroutine's thread in nanosleep until t.
// time.Sleep would do, but an idle Go process parks in epoll_wait, whose
// timeout counts in milliseconds: every op would start up to 1 ms late,
// and the open loop times from when an op was due.
func sleepUntil(t time.Time) {
	for {
		wait := time.Until(t)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil) // interrupted early by a signal: loop and sleep the rest
	}
}

// closedLoop has each sender send its next op as soon as the previous
// reply arrived, for dur.
func closedLoop(ops []Op, first int, dur time.Duration, senders int, send sendFunc) phaseResult {
	var next atomic.Int64
	var exhausted atomic.Bool
	locals := make([][]sample, senders)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := first + int(next.Add(1)) - 1
				if i >= len(ops) {
					exhausted.Store(true)
					return
				}
				op := &ops[i]
				t0 := time.Now()
				out := send(s, op)
				locals[s] = append(locals[s], sample{Index: i, Class: op.Class, Latency: time.Since(t0), outcome: out})
			}
		}(s)
	}
	wg.Wait()
	res := phaseResult{Elapsed: time.Since(start), Exhausted: exhausted.Load()}
	for _, l := range locals {
		res.Samples = append(res.Samples, l...)
	}
	return res
}

// backlogGrowing reports an open-loop phase whose start delays were still
// rising at its end: the last quarter's median delay is material and
// above the third quarter's. A backlog growing steadily since the phase
// began has a last quarter 1.4 times its third; one that levelled off, 1.
func backlogGrowing(startDelay []time.Duration) bool {
	n := len(startDelay)
	if n < 40 {
		return false
	}
	third := medianDur(startDelay[n/2 : 3*n/4])
	last := medianDur(startDelay[3*n/4:])
	return last > 50*time.Millisecond && float64(last) > 1.2*float64(third)
}

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

func msOf(ds []time.Duration) []float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = toMS(d)
	}
	return xs
}

// httpSenders is the real sendFunc: one HTTP client, so one connection,
// per sender goroutine, all aimed at one base URL.
type httpSenders struct {
	base    string
	clients []*http.Client
	bufs    []bytes.Buffer
	refs    map[string]string // flow reference outputs by workflow
}

func newHTTPSenders(base string, n int) *httpSenders {
	hs := &httpSenders{base: base, clients: make([]*http.Client, n), bufs: make([]bytes.Buffer, n), refs: map[string]string{}}
	for i := range hs.clients {
		hs.clients[i] = newHTTPClient()
	}
	return hs
}

// newHTTPClient makes a client that keeps exactly one connection alive.
func newHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, IdleConnTimeout: time.Minute},
		Timeout:   60 * time.Second,
	}
}

func (hs *httpSenders) close() {
	for _, c := range hs.clients {
		c.CloseIdleConnections()
	}
}

func (hs *httpSenders) send(sender int, op *Op) outcome {
	status, body, err := doHTTP(hs.clients[sender], &hs.bufs[sender], op.Method, hs.base+op.Path, op.Body)
	if err != nil || status < 200 || status > 299 {
		return outcome{}
	}
	return outcome{OK: true, Correct: judge(op, body, hs.refs), Bytes: len(body)}
}

// doHTTP sends one request and reads the whole reply into buf.
func doHTTP(hc *http.Client, buf *bytes.Buffer, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	res, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer res.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(res.Body); err != nil {
		return res.StatusCode, nil, err
	}
	return res.StatusCode, buf.Bytes(), nil
}

// searchReply is the part of a search response the checks read.
type searchReply struct {
	Hits []struct {
		Kind string `json:"kind"`
		ID   int    `json:"id"`
	} `json:"hits"`
	Degraded bool `json:"degraded"`
}

// judge decides whether a 2xx reply is the right answer for op.
func judge(op *Op, body []byte, flowRefs map[string]string) bool {
	switch op.Check {
	case checkStatus:
		return true
	case checkTarget, checkExact:
		var rep searchReply
		if json.Unmarshal(body, &rep) != nil || rep.Degraded {
			return false
		}
		if op.Check == checkTarget {
			for i, h := range rep.Hits {
				if i < searchLimit && h.Kind == op.Target.Kind && h.ID == op.Target.ID {
					return true
				}
			}
			return false
		}
		if len(rep.Hits) != len(op.Exact) {
			return false
		}
		for i, h := range rep.Hits {
			if h.Kind != op.Exact[i].Kind || h.ID != op.Exact[i].ID {
				return false
			}
		}
		return true
	case checkFlow:
		var rep core.ExecutionResponse
		if json.Unmarshal(body, &rep) != nil {
			return false
		}
		ref, ok := flowRefs[op.Ref]
		return ok && flowOutput(&rep) == ref
	}
	return false
}

// getJSON fetches url and decodes a 200 reply into out.
func getJSON(hc *http.Client, url string, out any) error {
	res, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, res.StatusCode)
	}
	return json.NewDecoder(res.Body).Decode(out)
}

// postJSON posts body (marshalled unless it already is JSON bytes) and
// requires the given status.
func postJSON(hc *http.Client, url string, body any, want int, out any) error {
	payload, ok := body.([]byte)
	if !ok {
		payload = mustJSON(body)
	}
	var buf bytes.Buffer
	status, raw, err := doHTTP(hc, &buf, "POST", url, payload)
	if err != nil {
		return err
	}
	if status != want {
		return fmt.Errorf("POST %s: status %d: %s", url, status, raw)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

var errExhausted = errors.New("the closed-loop phase ran out of generated ops; raise the workload's ClosedOpsPerSec")
