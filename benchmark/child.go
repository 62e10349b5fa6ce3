package main

import (
	"errors"
	"fmt"
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

// children tracks every live child server so that exit, a signal, or a panic
// in the harness never leaves a sagserver behind.
var children struct {
	mu  sync.Mutex
	set map[*child]struct{}
}

func killAllChildren() {
	children.mu.Lock()
	live := make([]*child, 0, len(children.set))
	for c := range children.set {
		live = append(live, c)
	}
	children.mu.Unlock()
	for _, c := range live {
		c.kill()
	}
}

// child is one sagserver process under test.
type child struct {
	cmd   *exec.Cmd
	base  string // http://127.0.0.1:<port>
	debug string // http://127.0.0.1:<debug port>
	log   *os.File
	done  chan struct{} // closed once Wait has returned
}

// buildServer compiles cmd/sagserver from the checkout's own source into
// the benchmark's out directory and returns the binary path.
func buildServer(root, outDir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(outDir, "bin", "sagserver"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/sagserver")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building sagserver: %v\n%s", err, out)
	}
	return bin, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches bin with the benchmark's fixed conditions plus extra,
// on ports picked now, with stdout and stderr appended to logPath.
func startServer(bin, logPath string, extra ...string) (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	dport, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	args := []string{
		"-addr", "127.0.0.1:" + strconv.Itoa(port),
		"-debug-addr", "127.0.0.1:" + strconv.Itoa(dport),
		"-seed", strconv.Itoa(serverSeed),
		"-fixed-clock", "9h",
		"-cache-size", "0",
	}
	args = append(args, extra...)
	fmt.Fprintf(logf, "--- %s %s\n", filepath.Base(bin), strings.Join(args, " "))
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	c := &child{
		cmd:   cmd,
		base:  "http://127.0.0.1:" + strconv.Itoa(port),
		debug: "http://127.0.0.1:" + strconv.Itoa(dport),
		log:   logf,
		done:  make(chan struct{}),
	}
	children.mu.Lock()
	if children.set == nil {
		children.set = make(map[*child]struct{})
	}
	children.set[c] = struct{}{}
	children.mu.Unlock()
	go func() {
		_ = cmd.Wait()
		children.mu.Lock()
		delete(children.set, c)
		children.mu.Unlock()
		logf.Close()
		close(c.done)
	}()
	return c, nil
}

// waitHTTP polls url until it answers 200, the child exits, or timeout.
func (c *child) waitHTTP(hc *http.Client, url string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := hc.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-c.done:
			return fmt.Errorf("server exited before %s answered 200 (see %s)", url, c.log.Name())
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready within %v", url, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// kill sends SIGKILL and waits for the process to be reaped.
func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	<-c.done
}

// term sends SIGTERM and returns how long the drain took.
func (c *child) term(timeout time.Duration) (time.Duration, error) {
	t0 := time.Now()
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		if errors.Is(err, os.ErrProcessDone) {
			return 0, errors.New("server had already exited before SIGTERM")
		}
		return 0, err
	}
	select {
	case <-c.done:
		return time.Since(t0), nil
	case <-time.After(timeout):
		c.kill()
		return time.Since(t0), fmt.Errorf("server did not drain within %v", timeout)
	}
}

func (c *child) pid() int { return c.cmd.Process.Pid }
