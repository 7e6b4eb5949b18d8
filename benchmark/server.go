package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"
)

// harness owns everything a run leaves outside its own memory: the
// scratch directory under .bench_build and the server children. close
// kills and reaps every child and removes the directory; main calls it
// on every exit path, signals and failed checks included.
type harness struct {
	root     string // module root (the directory holding go.mod)
	work     string // per-process scratch: server logs, data-dirs
	bin      string // the cludeserve binary, built on first use
	build    sync.Once
	buildErr error
	mu       sync.Mutex
	servers  []*server
}

// repoRoot walks up from the working directory to the module root, so
// the benchmark runs the same from the root (go run ./benchmark) and
// from its own directory (go test).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("benchmark: no go.mod above the working directory; run from the repository")
		}
		dir = parent
	}
}

// newHarness makes the scratch directory. Everything the benchmark
// writes, other than its reports under benchmark/out, lives below
// .bench_build.
func newHarness() (*harness, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	h := &harness{
		root: root,
		work: filepath.Join(root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid())),
		bin:  filepath.Join(root, ".bench_build", "bin", "cludeserve"),
	}
	if err := os.MkdirAll(h.work, 0o755); err != nil {
		return nil, err
	}
	return h, nil
}

// binary builds cludeserve from source into .bench_build, once.
func (h *harness) binary() (string, error) {
	h.build.Do(func() {
		build := exec.Command("go", "build", "-o", h.bin, "./cmd/cludeserve")
		build.Dir = h.root
		if out, err := build.CombinedOutput(); err != nil {
			h.buildErr = fmt.Errorf("build cludeserve: %w\n%s", err, out)
		}
	})
	return h.bin, h.buildErr
}

func (h *harness) close() {
	h.mu.Lock()
	servers := h.servers
	h.servers = nil
	h.mu.Unlock()
	for _, s := range servers {
		s.kill()
	}
	os.RemoveAll(h.work)
}

// server is one cludeserve child listening on a loopback port.
type server struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:<port>
	started time.Time
	logPath string
	log     *os.File
	once    sync.Once
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before the child binds it; losing that race fails the health
// poll and the run, it cannot corrupt a measurement.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// start execs cludeserve with -addr on a free port plus args. The
// child's log goes to a file in the scratch directory; its tail is
// quoted when the child fails to come up.
func (h *harness) start(name string, args ...string) (*server, error) {
	bin, err := h.binary()
	if err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	s := &server{base: "http://" + addr, logPath: filepath.Join(h.work, name+".log")}
	if s.log, err = os.OpenFile(s.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		return nil, err
	}
	s.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	s.cmd.Stdout, s.cmd.Stderr = s.log, s.log
	dieWithParent(s.cmd)
	s.started = time.Now()
	if err := s.cmd.Start(); err != nil {
		s.log.Close()
		return nil, fmt.Errorf("exec cludeserve: %w", err)
	}
	h.mu.Lock()
	h.servers = append(h.servers, s)
	h.mu.Unlock()
	return s, nil
}

// kill sends SIGKILL — the crash the recovery path is measured against —
// and reaps the child. It is idempotent.
func (s *server) kill() {
	s.once.Do(func() {
		_ = s.cmd.Process.Kill() // already exited is fine
		_ = s.cmd.Wait()         // reaping only; the exit status of a killed child says nothing
		s.log.Close()
	})
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// waitHealthy polls GET /v1/healthz until it answers 200 or ctx ends.
func (s *server) waitHealthy(ctx context.Context, c *http.Client) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/v1/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := c.Do(req); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("cludeserve not healthy at %s: %w\n%s", s.base, ctx.Err(), s.logTail())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func (s *server) logTail() string {
	b, err := os.ReadFile(s.logPath)
	if err != nil {
		return ""
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return "--- server log tail ---\n" + string(b)
}

// dirBytes is du of a directory tree: the sum of its regular files.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
