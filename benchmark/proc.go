package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDir holds everything the benchmark writes outside benchmark/out:
// the server binary and the per-run temp dirs. It sits in the checkout so
// a run never touches anything beyond it.
const buildDir = ".bench_build"

// nproc bounds the sender goroutines and is the process count handed to
// the parallel dataflow mappings.
func nproc() int { return runtime.NumCPU() }

// buildServer compiles cmd/laminar-server from the checkout's source into
// buildDir and returns the binary's path. The go build cache makes every
// call after the first a staleness check.
func buildServer() (string, error) {
	if _, err := os.Stat("go.mod"); err != nil {
		return "", fmt.Errorf("run from the repository root (no go.mod here): %w", err)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(buildDir, "laminar-server"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/laminar-server")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building laminar-server: %v\n%s", err, out)
	}
	return bin, nil
}

// tempDirs remembers every temp dir made, so the abort paths can remove
// what a workload's own defer did not get to.
var tempDirs struct {
	mu   sync.Mutex
	made []string
}

// tempDir makes a fresh directory under buildDir.
func tempDir(prefix string) (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(buildDir, prefix+"-")
	if err != nil {
		return "", err
	}
	if dir, err = filepath.Abs(dir); err != nil {
		return "", err
	}
	tempDirs.mu.Lock()
	tempDirs.made = append(tempDirs.made, dir)
	tempDirs.mu.Unlock()
	return dir, nil
}

func removeTempDirs() {
	tempDirs.mu.Lock()
	defer tempDirs.mu.Unlock()
	for _, dir := range tempDirs.made {
		_ = os.RemoveAll(dir)
	}
	tempDirs.made = nil
}

// child is one laminar-server process in its own process group.
type child struct {
	name string
	url  string
	cmd  *exec.Cmd
	logs lockedBuffer
	done chan struct{} // closed once Wait returned
	// expected is set before the harness itself stops the child, so the
	// reaper can tell a requested exit from a death.
	expected bool
	mu       sync.Mutex
}

// lockedBuffer collects a child's output; exec's copier goroutine writes
// while an abort path may read the tail.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// children tracks every live child so an abort path can reap them all.
var children struct {
	mu   sync.Mutex
	live map[*child]bool
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startChild execs the server on a fresh port without waiting for it to
// listen. The child gets its own process group and dies with the harness.
func startChild(bin, name string, flags ...string) (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	c := &child{name: name, url: "http://" + addr, done: make(chan struct{})}
	c.cmd = exec.Command(bin, append([]string{"-addr", addr}, flags...)...)
	c.cmd.Stdout = &c.logs
	c.cmd.Stderr = &c.logs
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	children.mu.Lock()
	if children.live == nil {
		children.live = map[*child]bool{}
	}
	children.live[c] = true
	children.mu.Unlock()
	go func() {
		_ = c.cmd.Wait()
		close(c.done)
	}()
	return c, nil
}

// exited reports whether the process has ended.
func (c *child) exited() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// died reports an exit the harness did not ask for.
func (c *child) died() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return !c.expected && c.exited()
}

// waitReady polls the child until it answers HTTP, and fails if it exits
// first or takes longer than a boot ever should.
func (c *child) waitReady(hc *http.Client) error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if c.exited() {
			return fmt.Errorf("%s exited during boot:\n%s", c.name, c.logTail())
		}
		res, err := hc.Get(c.url + "/auth/all")
		if err == nil {
			res.Body.Close()
			if res.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready after 60s:\n%s", c.name, c.logTail())
}

func (c *child) logTail() string {
	s := c.logs.String()
	if len(s) > 2000 {
		s = s[len(s)-2000:]
	}
	return s
}

// signalGroup sends sig to the child's whole process group.
func (c *child) signalGroup(sig syscall.Signal) {
	if c.cmd.Process != nil {
		_ = syscall.Kill(-c.cmd.Process.Pid, sig)
	}
}

// stop ends the child and waits for it. graceful sends SIGTERM first (the
// server drains and saves its registry); either way the group is killed if
// it has not ended in time.
func (c *child) stop(graceful bool) {
	c.mu.Lock()
	c.expected = true
	c.mu.Unlock()
	if !c.exited() {
		if graceful {
			c.signalGroup(syscall.SIGTERM)
			select {
			case <-c.done:
			case <-time.After(20 * time.Second):
			}
		}
		c.signalGroup(syscall.SIGKILL)
		<-c.done
	}
	children.mu.Lock()
	delete(children.live, c)
	children.mu.Unlock()
}

// killAllChildren reaps whatever is still running: the exit, panic and
// signal paths all end here.
func killAllChildren() {
	children.mu.Lock()
	live := make([]*child, 0, len(children.live))
	for c := range children.live {
		live = append(live, c)
	}
	children.mu.Unlock()
	for _, c := range live {
		c.stop(false)
	}
}

// reapOnSignal kills every child and removes the temp dirs when the
// harness is interrupted.
func reapOnSignal(cleanup func()) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		killAllChildren()
		cleanup()
		os.Exit(130)
	}()
}

// clockTick is USER_HZ, the unit of the utime/stime fields of
// /proc/<pid>/stat; it is 100 on every Linux the Go toolchain targets.
const clockTick = 100

// cpuSeconds reads the user+system CPU the child has used so far.
func (c *child) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) is parenthesised and may hold spaces.
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	fields := strings.Fields(s[i+1:])
	if len(fields) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("unparsable /proc stat times")
	}
	return (utime + stime) / clockTick, nil
}

// peakRSSMB reads the child's peak resident set (VmHWM).
func (c *child) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// cpuUsed is the user+system CPU an ended child used in total. (Its
// ru_maxrss is of no use beside it: a child inherits the high-water mark
// of the process that forked it, here the harness with a corpus in
// memory, so peak RSS is read from /proc while the child still runs.)
func (c *child) cpuUsed() float64 {
	st := c.cmd.ProcessState
	if st == nil {
		return 0
	}
	return st.UserTime().Seconds() + st.SystemTime().Seconds()
}

// cpuEach reads the CPU seconds each of several live children has used.
func cpuEach(cs []*child) ([]float64, error) {
	out := make([]float64, len(cs))
	for i, c := range cs {
		v, err := c.cpuSeconds()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		out[i] = v
	}
	return out, nil
}

// sumPeakRSS adds the peak RSS of several live children.
func sumPeakRSS(cs []*child) (float64, error) {
	var total float64
	for _, c := range cs {
		v, err := c.peakRSSMB()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", c.name, err)
		}
		total += v
	}
	return total, nil
}

// anyDied names the first child that ended without being asked to.
func anyDied(cs []*child) error {
	for _, c := range cs {
		if c.died() {
			return fmt.Errorf("%s died during the run:\n%s", c.name, c.logTail())
		}
	}
	return nil
}
