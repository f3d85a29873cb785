package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cerfix/internal/simd"
)

// env is what every run shares: the repository, the built daemon and
// the metric list of BENCHMARK.json.
type env struct {
	build  string // .bench_build at the repository root: everything a run writes
	daemon string // the cerfixd binary built from root
	spec   benchSpec
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: which
// metrics go into the result line and their regression bounds.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

// prepare finds the repository root above the working directory, reads
// BENCHMARK.json and builds cmd/cerfixd from source.
func prepare(ctx context.Context) (*env, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "cerfixd", "main.go")); err == nil {
			break
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, errors.New("no cmd/cerfixd above the working directory: run from a cerfix checkout")
		}
		dir = parent
	}
	e := &env{build: filepath.Join(dir, ".bench_build")}
	raw, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(raw, &e.spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if err := os.MkdirAll(e.build, 0o755); err != nil {
		return nil, err
	}
	e.daemon = filepath.Join(e.build, "cerfixd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", e.daemon, "./cmd/cerfixd")
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building cerfixd: %v\n%s", err, out)
	}
	return e, nil
}

// daemon is one running cerfixd child process.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:<port>
	args   []string
	exited chan struct{}
	err    error // Wait's result, set before exited closes
}

// startDaemon execs cerfixd with its default flags plus a loopback
// address, the instance to load and a jobs directory. Its log goes to
// logPath.
func startDaemon(bin, instance, jobsDir, logPath string) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", addr, "-load", instance, "-jobs-dir", jobsDir}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, args: args, exited: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		logf.Close()
		close(d.exited)
	}()
	return d, nil
}

// waitReady polls GET /api/v1/status until the daemon answers 200.
func (d *daemon) waitReady(ctx context.Context, hc *http.Client) error {
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	for {
		req, err := http.NewRequestWithContext(ctx, "GET", d.base+"/api/v1/status", nil)
		if err != nil {
			return err
		}
		if resp, err := hc.Do(req); err == nil {
			_ = drain(resp)
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.exited:
			return fmt.Errorf("cerfixd exited before serving: %v", d.err)
		case <-ctx.Done():
			return fmt.Errorf("cerfixd not ready: %w", ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// rssPeakMB reads the daemon's peak resident set (VmHWM).
func (d *daemon) rssPeakMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// cpuSeconds reads the daemon's user plus system CPU time.
func (d *daemon) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the whole line, in clock ticks.
	_, rest, ok := strings.Cut(string(raw), ") ")
	f := strings.Fields(rest)
	if !ok || len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad utime/stime in /proc stat")
	}
	return (ut + st) / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc CPU times on Linux.
const clockTicks = 100

// hostCPU reads the machine-wide busy and steal CPU time from
// /proc/stat: steal is time the hypervisor ran something else while
// this machine's CPUs had work.
func hostCPU() (busy, steal float64, err error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	ln, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(ln)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("no cpu line in /proc/stat")
	}
	var v [8]float64
	for i := range v {
		if v[i], err = strconv.ParseFloat(f[i+1], 64); err != nil {
			return 0, 0, err
		}
	}
	// user nice system idle iowait irq softirq steal
	return (v[0] + v[1] + v[2] + v[5] + v[6]) / clockTicks, v[7] / clockTicks, nil
}

// stop sends SIGTERM, which drains the idle daemon at once, and waits
// for the process to end; it kills the process if the drain hangs.
func (d *daemon) stop() {
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// hostStamp describes the machine and the run, so a number can be
// traced to where and how it was measured.
func hostStamp(cfg config, d *daemon, jobsDir string) []string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			commit = rev
			if modified == "true" {
				commit += "+modified"
			}
		}
	}
	return []string{
		fmt.Sprintf("host: goarch=%s numcpu=%d gomaxprocs=%d go=%s simd=%s commit=%s jobs_fs=%s",
			runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
			simd.Active(), commit, fsType(jobsDir)),
		fmt.Sprintf("run: workload=%s seed=%d warmup=%s window=%s setups=%d traced=%v cerfixd_flags=%q",
			cfg.name, cfg.seed, cfg.warmup, cfg.window, cfg.setups, cfg.traced, strings.Join(d.args, " ")),
	}
}

// fsType names the filesystem holding path from /proc/self/mounts (the
// longest mount point that prefixes it), or "unknown".
func fsType(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	raw, err := os.ReadFile("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := -1, "unknown"
	for _, ln := range strings.Split(string(raw), "\n") {
		f := strings.Fields(ln)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			best, typ = len(mp), f[2]
		}
	}
	return typ
}
