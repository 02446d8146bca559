package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procs tracks every child process the benchmark starts so all of them,
// with their process groups, can be killed on exit, error or timeout.
type procs struct {
	mu   sync.Mutex
	live map[*child]bool
}

func newProcs() *procs { return &procs{live: map[*child]bool{}} }

// child is one system-under-test process.
type child struct {
	name    string
	cmd     *exec.Cmd
	stdout  bytes.Buffer // only for batch processes
	stderr  tailBuffer
	done    chan struct{} // closed once Wait has returned
	waitErr error
}

// start launches bin in its own process group. Batch processes collect
// stdout; servers discard it.
func (p *procs) start(name string, keepStdout bool, bin string, args ...string) (*child, error) {
	c := &child{name: name, done: make(chan struct{})}
	c.cmd = exec.Command(bin, args...)
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if keepStdout {
		c.cmd.Stdout = &c.stdout
	}
	c.cmd.Stderr = &c.stderr
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p.mu.Lock()
	p.live[c] = true
	p.mu.Unlock()
	go func() {
		c.waitErr = c.cmd.Wait()
		p.mu.Lock()
		delete(p.live, c)
		p.mu.Unlock()
		close(c.done)
	}()
	return c, nil
}

// alive reports whether the process has not exited.
func (c *child) alive() bool {
	select {
	case <-c.done:
		return false
	default:
		return true
	}
}

// wait blocks until the process exits or ctx ends (then kills it).
func (c *child) wait(ctx context.Context) error {
	select {
	case <-c.done:
	case <-ctx.Done():
		c.kill()
		return ctx.Err()
	}
	if c.waitErr != nil {
		return fmt.Errorf("%s: %v: %s", c.name, c.waitErr, c.stderr.String())
	}
	return nil
}

// kill SIGKILLs the process group and waits for the process to be reaped.
// A reaped child is left alone: its pid, and so its group id, may since
// belong to an unrelated process.
func (c *child) kill() {
	if !c.alive() {
		return
	}
	if c.cmd.Process != nil {
		_ = syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL)
	}
	select {
	case <-c.done:
	case <-time.After(10 * time.Second):
	}
}

// killAll kills every live child and waits for each.
func (p *procs) killAll() {
	p.mu.Lock()
	cs := make([]*child, 0, len(p.live))
	for c := range p.live {
		cs = append(cs, c)
	}
	p.mu.Unlock()
	for _, c := range cs {
		c.kill()
	}
}

// usage is the CPU time and peak RSS of an exited process (rusage).
func (c *child) usage() (cpuS, rssMB float64) {
	ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, 0
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu.Seconds(), float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux platform Go supports.
const clockTicks = 100

// cpuNow reads the running process's user+sys CPU seconds from /proc.
func (c *child) cpuNow() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("parse /proc stat of %s", c.name)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("parse /proc stat of %s", c.name)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (ut + st) / clockTicks, nil
}

// peakRSSNow reads the running process's peak RSS (VmHWM) in MiB.
func (c *child) peakRSSNow() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for %s", c.name)
}

// tailBuffer keeps the last few KiB written to it (a child's stderr).
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

const tailKeep = 8 << 10

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > tailKeep {
		t.buf = append([]byte(nil), t.buf[len(t.buf)-tailKeep:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.TrimSpace(string(t.buf))
}

// freePorts returns n distinct loopback ports that were free a moment
// ago. All n are held open until every one is chosen, so two children
// launched together never get the same port.
func freePorts(n int) ([]int, error) {
	var ports []int
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// newClient returns an HTTP client holding at most one connection, so
// the generator's connection count is the number of clients it makes.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// get fetches url and returns the status, body and request latency.
func get(cl *http.Client, url string) (int, []byte, time.Duration, error) {
	t0 := time.Now()
	resp, err := cl.Get(url)
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, time.Since(t0), err
}

// getJSON fetches url and decodes a 200 body into v.
func getJSON(cl *http.Client, url string, v any) error {
	code, body, _, err := get(cl, url)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", url, code, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}

// waitFor polls cond every millisecond until it holds or the deadline
// passes; any of the children dying first is an error.
func waitFor(children []*child, timeout time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for _, c := range children {
			if !c.alive() {
				return fmt.Errorf("%s exited before %s: %s", c.name, what, c.stderr.String())
			}
		}
		if cond() {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("timed out waiting for %s", what)
}

// binaryVersion runs "<bin> -version" and returns the version word.
func binaryVersion(bin string) (string, error) {
	out, err := exec.Command(bin, "-version").Output()
	if err != nil {
		return "", fmt.Errorf("%s -version: %w", bin, err)
	}
	f := strings.Fields(string(out))
	if len(f) < 3 || f[1] != "version" {
		return "", fmt.Errorf("%s -version: unexpected output %q", bin, out)
	}
	return f[2], nil
}

// servedVersion reads the hcapp_build_info version label from /metrics.
func servedVersion(cl *http.Client, base string) (string, error) {
	code, body, _, err := get(cl, base+"/metrics")
	if err != nil {
		return "", err
	}
	if code != http.StatusOK {
		return "", fmt.Errorf("GET %s/metrics: status %d", base, code)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, `hcapp_build_info{version="`); ok {
			v, _, _ := strings.Cut(rest, `"`)
			return v, nil
		}
	}
	return "", fmt.Errorf("%s/metrics has no hcapp_build_info", base)
}
