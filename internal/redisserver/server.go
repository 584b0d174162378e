// Package redisserver is a mini Redis server over TCP speaking RESP2. It
// implements the keyspace commands the Laminar Redis mapping (and its tests)
// use: strings (GET/SET/DEL/INCR/EXISTS), lists (LPUSH/RPUSH/LPOP/RPOP/
// BLPOP/BRPOP/LLEN/LRANGE), hashes (HSET/HGET/HGETALL/HDEL), plus PING,
// FLUSHALL, KEYS and SELECT. A blocking pop parks the connection goroutine
// on a wake channel registered under each key it waits on, and a push wakes
// only the pops waiting on its key, giving the same work-queue semantics a
// real Redis provides to dispel4py's redis mapping.
package redisserver

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"laminar/internal/resp"
)

// Server is a mini Redis instance.
type Server struct {
	mu      sync.Mutex
	strings map[string]string
	lists   map[string][]string
	hashes  map[string]map[string]string
	// waiting maps a list key to the wake channels of the pops blocked on it.
	waiting map[string][]chan struct{}

	ln       net.Listener
	addr     string
	closed   chan struct{}
	closeOne sync.Once
	wg       sync.WaitGroup
}

// New creates an empty server (not yet listening).
func New() *Server {
	s := &Server{
		strings: map[string]string{},
		lists:   map[string][]string{},
		hashes:  map[string]map[string]string{},
		waiting: map[string][]chan struct{}{},
		closed:  make(chan struct{}),
	}
	return s
}

// Start listens on addr ("127.0.0.1:0" picks a free port) and serves until
// Close. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.addr = ln.Addr().String()
	s.wg.Add(1)
	go s.acceptLoop()
	return s.addr, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.addr }

// Close stops the listener and unblocks all clients.
func (s *Server) Close() {
	s.closeOne.Do(func() {
		close(s.closed)
		if s.ln != nil {
			s.ln.Close()
		}
	})
	s.wg.Wait()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
				return
			}
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	r := resp.NewReader(conn)
	w := resp.NewWriter(conn)
	for {
		select {
		case <-s.closed:
			return
		default:
		}
		v, err := r.Read()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				_ = w.Write(resp.Err("ERR protocol: " + err.Error()))
				_ = w.Flush()
			}
			return
		}
		if v.Type != resp.TypeArray || len(v.Array) == 0 {
			_ = w.Write(resp.Err("ERR expected command array"))
			_ = w.Flush()
			continue
		}
		args := make([]string, len(v.Array))
		for i, a := range v.Array {
			args[i] = a.Str
		}
		reply := s.Dispatch(args)
		if err := w.Write(reply); err != nil {
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
		if strings.EqualFold(args[0], "QUIT") {
			return
		}
	}
}

// Dispatch executes a command and returns the RESP reply. Exposed for
// in-process (no TCP) use by tests and the embedded mapping.
func (s *Server) Dispatch(args []string) resp.Value {
	cmd := strings.ToUpper(args[0])
	switch cmd {
	case "PING":
		if len(args) == 2 {
			return resp.Bulk(args[1])
		}
		return resp.Simple("PONG")
	case "ECHO":
		if len(args) != 2 {
			return wrongArity(cmd)
		}
		return resp.Bulk(args[1])
	case "QUIT":
		return resp.Simple("OK")
	case "SELECT":
		return resp.Simple("OK") // single logical database
	case "FLUSHALL", "FLUSHDB":
		s.mu.Lock()
		s.strings = map[string]string{}
		s.lists = map[string][]string{}
		s.hashes = map[string]map[string]string{}
		s.mu.Unlock()
		return resp.Simple("OK")
	case "SET":
		if len(args) < 3 {
			return wrongArity(cmd)
		}
		s.mu.Lock()
		s.strings[args[1]] = args[2]
		s.mu.Unlock()
		return resp.Simple("OK")
	case "GET":
		if len(args) != 2 {
			return wrongArity(cmd)
		}
		s.mu.Lock()
		v, ok := s.strings[args[1]]
		s.mu.Unlock()
		if !ok {
			return resp.NullBulk()
		}
		return resp.Bulk(v)
	case "DEL":
		if len(args) < 2 {
			return wrongArity(cmd)
		}
		n := int64(0)
		s.mu.Lock()
		for _, k := range args[1:] {
			if _, ok := s.strings[k]; ok {
				delete(s.strings, k)
				n++
			}
			if _, ok := s.lists[k]; ok {
				delete(s.lists, k)
				n++
			}
			if _, ok := s.hashes[k]; ok {
				delete(s.hashes, k)
				n++
			}
		}
		s.mu.Unlock()
		return resp.Integer(n)
	case "EXISTS":
		if len(args) != 2 {
			return wrongArity(cmd)
		}
		s.mu.Lock()
		_, ok1 := s.strings[args[1]]
		_, ok2 := s.lists[args[1]]
		_, ok3 := s.hashes[args[1]]
		s.mu.Unlock()
		if ok1 || ok2 || ok3 {
			return resp.Integer(1)
		}
		return resp.Integer(0)
	case "INCR", "INCRBY":
		if (cmd == "INCR" && len(args) != 2) || (cmd == "INCRBY" && len(args) != 3) {
			return wrongArity(cmd)
		}
		delta := int64(1)
		if cmd == "INCRBY" {
			d, err := strconv.ParseInt(args[2], 10, 64)
			if err != nil {
				return resp.Err("ERR value is not an integer or out of range")
			}
			delta = d
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		cur := int64(0)
		if v, ok := s.strings[args[1]]; ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return resp.Err("ERR value is not an integer or out of range")
			}
			cur = n
		}
		cur += delta
		s.strings[args[1]] = strconv.FormatInt(cur, 10)
		return resp.Integer(cur)
	case "KEYS":
		s.mu.Lock()
		var keys []string
		for k := range s.strings {
			keys = append(keys, k)
		}
		for k := range s.lists {
			keys = append(keys, k)
		}
		for k := range s.hashes {
			keys = append(keys, k)
		}
		s.mu.Unlock()
		sort.Strings(keys)
		items := make([]resp.Value, len(keys))
		for i, k := range keys {
			items[i] = resp.Bulk(k)
		}
		return resp.Array(items...)
	case "LPUSH", "RPUSH":
		if len(args) < 3 {
			return wrongArity(cmd)
		}
		s.mu.Lock()
		lst := s.lists[args[1]]
		for _, v := range args[2:] {
			if cmd == "LPUSH" {
				lst = append([]string{v}, lst...)
			} else {
				lst = append(lst, v)
			}
		}
		s.lists[args[1]] = lst
		n := len(lst)
		for _, wake := range s.waiting[args[1]] {
			select {
			case wake <- struct{}{}:
			default:
			}
		}
		s.mu.Unlock()
		return resp.Integer(int64(n))
	case "LPOP", "RPOP":
		if len(args) != 2 {
			return wrongArity(cmd)
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		v, ok := s.popLocked(args[1], cmd == "LPOP")
		if !ok {
			return resp.NullBulk()
		}
		return resp.Bulk(v)
	case "BLPOP", "BRPOP":
		if len(args) < 3 {
			return wrongArity(cmd)
		}
		timeout, err := strconv.ParseFloat(args[len(args)-1], 64)
		if err != nil || timeout < 0 {
			return resp.Err("ERR timeout is not a float or out of range")
		}
		keys := args[1 : len(args)-1]
		return s.blockingPop(keys, cmd == "BLPOP", timeout)
	case "LLEN":
		if len(args) != 2 {
			return wrongArity(cmd)
		}
		s.mu.Lock()
		n := len(s.lists[args[1]])
		s.mu.Unlock()
		return resp.Integer(int64(n))
	case "LRANGE":
		if len(args) != 4 {
			return wrongArity(cmd)
		}
		start, err1 := strconv.Atoi(args[2])
		stop, err2 := strconv.Atoi(args[3])
		if err1 != nil || err2 != nil {
			return resp.Err("ERR value is not an integer or out of range")
		}
		s.mu.Lock()
		lst := s.lists[args[1]]
		n := len(lst)
		if start < 0 {
			start += n
		}
		if stop < 0 {
			stop += n
		}
		if start < 0 {
			start = 0
		}
		if stop >= n {
			stop = n - 1
		}
		var out []resp.Value
		for i := start; i <= stop && i < n; i++ {
			out = append(out, resp.Bulk(lst[i]))
		}
		s.mu.Unlock()
		return resp.Array(out...)
	case "HSET":
		if len(args) < 4 || len(args)%2 != 0 {
			return wrongArity(cmd)
		}
		s.mu.Lock()
		h, ok := s.hashes[args[1]]
		if !ok {
			h = map[string]string{}
			s.hashes[args[1]] = h
		}
		added := int64(0)
		for i := 2; i+1 < len(args); i += 2 {
			if _, exists := h[args[i]]; !exists {
				added++
			}
			h[args[i]] = args[i+1]
		}
		s.mu.Unlock()
		return resp.Integer(added)
	case "HGET":
		if len(args) != 3 {
			return wrongArity(cmd)
		}
		s.mu.Lock()
		v, ok := s.hashes[args[1]][args[2]]
		s.mu.Unlock()
		if !ok {
			return resp.NullBulk()
		}
		return resp.Bulk(v)
	case "HDEL":
		if len(args) < 3 {
			return wrongArity(cmd)
		}
		s.mu.Lock()
		n := int64(0)
		for _, f := range args[2:] {
			if _, ok := s.hashes[args[1]][f]; ok {
				delete(s.hashes[args[1]], f)
				n++
			}
		}
		s.mu.Unlock()
		return resp.Integer(n)
	case "HGETALL":
		if len(args) != 2 {
			return wrongArity(cmd)
		}
		s.mu.Lock()
		h := s.hashes[args[1]]
		fields := make([]string, 0, len(h))
		for f := range h {
			fields = append(fields, f)
		}
		sort.Strings(fields)
		var out []resp.Value
		for _, f := range fields {
			out = append(out, resp.Bulk(f), resp.Bulk(h[f]))
		}
		s.mu.Unlock()
		return resp.Array(out...)
	default:
		return resp.Err(fmt.Sprintf("ERR unknown command '%s'", args[0]))
	}
}

func (s *Server) popLocked(key string, left bool) (string, bool) {
	lst := s.lists[key]
	if len(lst) == 0 {
		return "", false
	}
	var v string
	if left {
		v, lst = lst[0], lst[1:]
	} else {
		v, lst = lst[len(lst)-1], lst[:len(lst)-1]
	}
	if len(lst) == 0 {
		delete(s.lists, key)
	} else {
		s.lists[key] = lst
	}
	return v, true
}

// blockingPop implements BLPOP/BRPOP: wait until any key has an element or
// the timeout elapses (0 = wait forever). A pop that finds an element
// returns without a timer or a wake channel.
func (s *Server) blockingPop(keys []string, left bool, timeout float64) resp.Value {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(time.Duration(timeout * float64(time.Second)))
	}
	var wake chan struct{}
	var expired <-chan time.Time // nil, so never ready, without a timeout
	defer func() {
		if wake != nil {
			s.mu.Lock()
			s.unwaitLocked(keys, wake)
			s.mu.Unlock()
		}
	}()
	for {
		select {
		case <-s.closed:
			return resp.NullArray()
		default:
		}
		s.mu.Lock()
		for _, k := range keys {
			if v, ok := s.popLocked(k, left); ok {
				s.mu.Unlock()
				return resp.Array(resp.Bulk(k), resp.Bulk(v))
			}
		}
		if wake == nil {
			wake = make(chan struct{}, 1)
			for _, k := range keys {
				s.waiting[k] = append(s.waiting[k], wake)
			}
		}
		s.mu.Unlock()
		if expired == nil && !deadline.IsZero() {
			t := time.NewTimer(time.Until(deadline))
			defer t.Stop()
			expired = t.C
		}
		select {
		case <-wake:
		case <-expired:
			return resp.NullArray()
		case <-s.closed:
			return resp.NullArray()
		}
	}
}

// unwaitLocked removes wake from the waiters of every key in keys.
func (s *Server) unwaitLocked(keys []string, wake chan struct{}) {
	for _, k := range keys {
		ws := s.waiting[k]
		for i, w := range ws {
			if w == wake {
				ws = append(ws[:i], ws[i+1:]...)
				break
			}
		}
		if len(ws) == 0 {
			delete(s.waiting, k)
		} else {
			s.waiting[k] = ws
		}
	}
}

func wrongArity(cmd string) resp.Value {
	return resp.Err(fmt.Sprintf("ERR wrong number of arguments for '%s' command", strings.ToLower(cmd)))
}
