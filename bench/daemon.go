package main

// Running real gpuwalkd processes: building the binary from
// ./cmd/gpuwalkd, starting a backend (and optionally a gateway in
// front of it) on kernel-assigned ports with fresh state directories,
// reading what /proc exposes about them, and stopping them with SIGTERM
// while checking their exit status.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDaemon compiles gpuwalkd into the build directory.
func buildDaemon(ctx context.Context, root string) (string, error) {
	bin := filepath.Join(root, buildDir, "bin", "gpuwalkd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/gpuwalkd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building gpuwalkd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running gpuwalkd process.
type daemon struct {
	name string
	cmd  *exec.Cmd
	url  string
	log  string
	done chan error // receives cmd.Wait's result once
}

// startDaemon execs gpuwalkd with args and waits for the line that
// announces its listener. Stderr and the rest of stdout go to logPath.
func startDaemon(ctx context.Context, name, bin, logPath string, args ...string) (*daemon, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	// The daemon must not outlive the benchmark even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	d := &daemon{name: name, cmd: cmd, log: logPath, done: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		br := bufio.NewReader(stdout)
		for {
			line, err := br.ReadString('\n')
			logf.WriteString(line)
			if _, rest, ok := strings.Cut(line, "listening on "); ok {
				addr <- strings.Fields(rest)[0]
				break
			}
			if err != nil {
				break
			}
		}
		io.Copy(logf, br)
		d.done <- cmd.Wait()
		logf.Close()
	}()
	select {
	case a := <-addr:
		d.url = "http://" + a
		return d, nil
	case err := <-d.done:
		return nil, fmt.Errorf("%s exited before listening: %v%s", name, err, logTail(logPath))
	case <-time.After(30 * time.Second):
	case <-ctx.Done():
	}
	d.kill()
	return nil, fmt.Errorf("%s did not announce a listener%s", name, logTail(logPath))
}

// waitHealthy polls /healthz until it answers 200.
func waitHealthy(ctx context.Context, hc *http.Client, url string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := hc.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("%s not healthy: %v", url, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM and waits for a clean exit.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signalling %s: %w", d.name, err)
	}
	select {
	case err := <-d.done:
		if err != nil {
			return fmt.Errorf("%s exited uncleanly: %v%s", d.name, err, logTail(d.log))
		}
		return nil
	case <-time.After(60 * time.Second):
		d.kill()
		return fmt.Errorf("%s did not exit within 60s of SIGTERM", d.name)
	}
}

// kill force-stops the daemon and waits for it; for error paths.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
}

func logTail(path string) string {
	b, err := os.ReadFile(path)
	if err != nil || len(b) == 0 {
		return ""
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return "\n--- " + path + " (tail) ---\n" + string(b)
}

// procCPU returns the process's user+system CPU time from /proc.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3
	// (state); utime and stime are fields 14 and 15, in clock ticks.
	i := strings.LastIndexByte(string(b), ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat line")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	const ticksPerSecond = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / ticksPerSecond, nil
}

// peakRSS returns a process's peak resident set (VmHWM) in MiB, 0 if
// /proc does not report it.
func peakRSS(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// resetPeakRSS restarts this process's VmHWM from its current RSS, so
// a later peakRSS covers only what follows. Without permission the
// peak simply covers the process's whole life.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
