package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// childEnv pins every process under test to the two cores the load is
// sized for, whatever the host has.
func childEnv() []string {
	env := os.Environ()
	out := env[:0:0]
	for _, kv := range env {
		if !strings.HasPrefix(kv, "GOMAXPROCS=") {
			out = append(out, kv)
		}
	}
	return append(out, "GOMAXPROCS=2")
}

// children tracks every live child process so that an interrupt or a
// failure can reap them all; a finished run leaves the set empty.
var children struct {
	sync.Mutex
	live map[*exec.Cmd]bool
	// stopping is set by the first interrupt: no child starts after it.
	stopping bool
}

var errInterrupted = errors.New("interrupted")

// stopping reports whether an interrupt has arrived. The loops that run
// for seconds without starting a child ask it between iterations.
func stopping() bool {
	children.Lock()
	defer children.Unlock()
	return children.stopping
}

// startChild starts cmd and tracks it, unless an interrupt has arrived.
// Holding the lock across the start means an interrupt either sees the
// child in the set or prevents it.
func startChild(c *exec.Cmd) error {
	children.Lock()
	defer children.Unlock()
	if children.stopping {
		return errInterrupted
	}
	if err := c.Start(); err != nil {
		return err
	}
	if children.live == nil {
		children.live = map[*exec.Cmd]bool{}
	}
	children.live[c] = true
	return nil
}

func untrackChild(c *exec.Cmd) {
	children.Lock()
	delete(children.live, c)
	children.Unlock()
}

// killChildren kills every tracked child. The goroutine that started a
// child still owns its Wait; this only makes that Wait return.
func killChildren() {
	children.Lock()
	defer children.Unlock()
	for c := range children.live {
		_ = c.Process.Kill() // already-exited children report an error that changes nothing
	}
}

// interrupt is what a SIGINT or SIGTERM does: it stops new children,
// kills the live ones, and leaves the exit to the main goroutine, which
// finds its current step failing or asks stopping().
func interrupt() {
	children.Lock()
	children.stopping = true
	children.Unlock()
	killChildren()
}

// usage is what a process under test cost over its life. The CPU times
// come from the kernel's accounting at reap. The resident-set figures
// are VmHWM and VmRSS from /proc/<pid>/status, read by whoever can still
// see the process just before it ends — not wait4's ru_maxrss, which on
// Linux starts from the parent's own peak at the moment of the spawn and
// so would report the generator's memory whenever that was larger.
type usage struct {
	UserMs, SysMs float64
	PeakRSSMB     float64
	EndRSSMB      float64
}

func cpuOf(ps *os.ProcessState) usage {
	return usage{
		UserMs: float64(ps.UserTime()) / float64(time.Millisecond),
		SysMs:  float64(ps.SystemTime()) / float64(time.Millisecond),
	}
}

// clockTick is USER_HZ, the unit of the CPU fields in /proc/<pid>/stat;
// it is 100 on every Linux port Go supports.
const clockTick = 100

// procCPU reads a live process's accumulated user and system CPU time
// in milliseconds from /proc/<pid>/stat.
func procCPU(pid int) (userMs, sysMs float64, err error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// The command name (field 2) may contain spaces; fields after the
	// closing parenthesis are well-formed.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, 0, fmt.Errorf("proc stat: malformed")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("proc stat: short")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64) // field 14
	st, err2 := strconv.ParseFloat(f[12], 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("proc stat: bad cpu fields")
	}
	return ut * 1000 / clockTick, st * 1000 / clockTick, nil
}

// procRSS reads a live process's current and peak resident set (VmRSS,
// VmHWM) in MiB from /proc/<pid>/status.
func procRSS(pid int) (rssMB, peakMB float64, err error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		var dst *float64
		switch {
		case strings.HasPrefix(line, "VmRSS:"):
			dst = &rssMB
		case strings.HasPrefix(line, "VmHWM:"):
			dst = &peakMB
		default:
			continue
		}
		f := strings.Fields(line)
		if len(f) >= 2 {
			kb, _ := strconv.ParseFloat(f[1], 64)
			*dst = kb / 1024
		}
	}
	return rssMB, peakMB, nil
}

// selfCPU is the calling process's accumulated CPU in milliseconds.
func selfCPU() (userMs, sysMs float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1000 + float64(t.Usec)/1000 }
	return tv(ru.Utime), tv(ru.Stime)
}

// selfCPUMs is the calling process's user plus system CPU so far.
func selfCPUMs() float64 {
	u, s := selfCPU()
	return u + s
}

// childReport is what every child mode reports about itself.
type childReport struct {
	ReadyUnixNano int64 `json:"ready_unix_nano"` // set-up done, first timed op next
	windowRates
	PeakRSSMB float64 `json:"peak_rss_mb"` // own VmHWM at exit
}

// emit prints the child's report with its own peak resident set, read
// last so that it covers everything the child did.
func (r *childReport) emit(report any) error {
	_, r.PeakRSSMB, _ = procRSS(os.Getpid())
	return json.NewEncoder(os.Stdout).Encode(report)
}

// runTracked runs cmd to completion as a tracked child and returns its
// standard output; what it wrote to standard error goes into the error.
func runTracked(cmd *exec.Cmd) ([]byte, error) {
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := startChild(cmd); err != nil {
		return nil, err
	}
	err := cmd.Wait()
	untrackChild(cmd)
	if err != nil {
		return nil, fmt.Errorf("%s %v: %w: %s", filepath.Base(cmd.Path), cmd.Args[1:], err, strings.TrimSpace(errb.String()))
	}
	return out.Bytes(), nil
}

// runChild runs one child mode of this binary to completion and decodes
// the JSON report it prints on standard output.
func runChild(self string, args []string, report any) error {
	cmd := exec.Command(self, args...)
	cmd.Env = childEnv()
	out, err := runTracked(cmd)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(out, report); err != nil {
		return fmt.Errorf("child %v: bad report: %w", args, err)
	}
	return nil
}

// daemon is one running firmupd.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	logPath string
	logFile *os.File
	started time.Time
	client  *http.Client
}

// freeAddr asks the kernel for an unused loopback port. The port is
// released before firmupd binds it; nothing else in the sandbox races
// for it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startDaemon execs the shipped firmupd on a shard directory with its
// default flags; only the listen address, the corpus and the access-log
// destination (a file, so the log is really written) are given.
func startDaemon(bin, corpusDir, workDir string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logPath := filepath.Join(workDir, "firmupd.log")
	lf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-corpus", corpusDir, "-addr", addr, "-access-log", filepath.Join(workDir, "access.log"))
	cmd.Env = childEnv()
	cmd.Stdout, cmd.Stderr = lf, lf
	d := &daemon{
		cmd: cmd, base: "http://" + addr, logPath: logPath, logFile: lf,
		client: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 8},
		},
	}
	d.started = time.Now()
	if err := startChild(cmd); err != nil {
		lf.Close()
		return nil, err
	}
	return d, nil
}

// waitReady polls /healthz until it answers 200 and returns the time
// from exec to that answer.
func (d *daemon) waitReady(timeout time.Duration) (time.Duration, error) {
	deadline := d.started.Add(timeout)
	for {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained only so the connection is reused
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(d.started), nil
			}
		}
		if stopping() {
			return 0, errInterrupted
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("firmupd not ready after %v: %s", timeout, d.logTail())
		}
		time.Sleep(time.Millisecond)
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

func (d *daemon) logTail() string {
	b, err := os.ReadFile(d.logPath)
	if err != nil {
		return ""
	}
	if len(b) > 600 {
		b = b[len(b)-600:]
	}
	return strings.TrimSpace(string(b))
}

// stop sends SIGTERM (firmupd drains and exits), waits for the process
// and returns its lifetime resource usage. A daemon that ignores the
// signal for ten seconds is killed.
func (d *daemon) stop() (usage, error) {
	defer d.logFile.Close()
	defer untrackChild(d.cmd)
	d.client.CloseIdleConnections()
	end, peak, _ := procRSS(d.pid())          // zero if the daemon is already gone; its exit is reported below
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an exited process is reaped below either way
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return usage{}, fmt.Errorf("firmupd exit: %w: %s", err, d.logTail())
		}
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
		return usage{}, fmt.Errorf("firmupd ignored SIGTERM: %s", d.logTail())
	}
	u := cpuOf(d.cmd.ProcessState)
	u.EndRSSMB, u.PeakRSSMB = end, peak
	return u, nil
}

// post sends one /search request and returns status, body and latency
// as the caller saw it: from before the request is written until the
// whole reply has been read.
func (d *daemon) post(q *query, image int) (status int, body []byte, dur time.Duration, err error) {
	url := d.base + "/search?proc=" + q.Proc
	if image >= 0 {
		url += "&image=" + strconv.Itoa(image)
	}
	t0 := time.Now()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(q.Data))
	if err != nil {
		return 0, nil, 0, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, time.Since(t0), err
}

// daemonMetrics is the subset of firmupd's GET /metrics JSON the
// benchmark reads, by name; a name the daemon does not export reads as
// absent (ok false) instead of failing the run.
type daemonMetrics struct {
	Counters   map[string]int64 `json:"counters"`
	Histograms map[string]struct {
		Count int64 `json:"count"`
		Sum   int64 `json:"sum"`
	} `json:"histograms"`
}

func (d *daemon) metrics() (*daemonMetrics, error) {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m daemonMetrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, err
	}
	return &m, nil
}

// histMeanDelta is the mean of the observations a histogram gained
// between two snapshots.
func histMeanDelta(before, after *daemonMetrics, name string) (mean float64, ok bool) {
	a, okA := after.Histograms[name]
	if !okA {
		return 0, false
	}
	b := before.Histograms[name]
	if a.Count == b.Count {
		return 0, false
	}
	return float64(a.Sum-b.Sum) / float64(a.Count-b.Count), true
}

// searchReply is the part of firmupd's /search response schema the
// benchmark checks.
type searchReply struct {
	Images []struct {
		Findings []struct {
			ExePath   string `json:"exe_path"`
			ProcAddr  uint32 `json:"proc_addr"`
			GameSteps int    `json:"game_steps"`
		} `json:"findings"`
		Examined int `json:"examined"`
	} `json:"images"`
}

// locate reduces a /search reply to scored locations. A corpus-wide
// reply lists every image in order; a single-image reply (image >= 0)
// holds just that one.
func locate(body []byte, image int) ([]located, error) {
	var r searchReply
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, err
	}
	if image >= 0 && len(r.Images) != 1 {
		return nil, fmt.Errorf("single-image reply holds %d images", len(r.Images))
	}
	out := []located{}
	for i, im := range r.Images {
		ii := i
		if image >= 0 {
			ii = image
		}
		for _, f := range im.Findings {
			out = append(out, located{Image: ii, Path: f.ExePath, Addr: f.ProcAddr})
		}
	}
	sortLocated(out)
	return out, nil
}

func sameLocated(a, b []located) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
