// Package selfexec lets a command's tests run the command as a child process
// without building it: a test binary started with Env set runs the command's
// main instead of its tests, and so does every process it re-executes.
package selfexec

import (
	"os"
	"os/exec"
	"sync"
	"syscall"
	"testing"
	"time"
	"unsafe"
)

// Env is the variable that makes a test binary run main.
const Env = "ANYCASTDDOS_SELFEXEC"

// Main is a command package's TestMain body.
func Main(m *testing.M, main func()) {
	if os.Getenv(Env) != "" {
		main()
	}
	os.Exit(m.Run())
}

// Child is the command running in its own process group, writing to the
// test binary's stderr. Exited is closed once the command has exited. It
// stays unreaped until Kill, so the id of its process group, which Kill
// signals, cannot pass to another process before then.
type Child struct {
	*exec.Cmd
	Exited  chan struct{}
	once    sync.Once
	exitErr error
}

// Start runs the command with args. The child and everything it starts are
// killed, and the child reaped, when the test ends, passed or failed.
func Start(t testing.TB, args ...string) *Child {
	c := &Child{Cmd: exec.Command(os.Args[0], args...), Exited: make(chan struct{})}
	c.Env = append(os.Environ(), Env+"=1")
	c.Stdout, c.Stderr = os.Stderr, os.Stderr
	c.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := c.Cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { waitExited(c.Process.Pid); close(c.Exited) }()
	t.Cleanup(func() { _ = c.Kill() })
	return c
}

// Until polls pred until it holds (true) or the command has exited 0
// (false). An exit with an error, or a minute with neither, fails the test.
func (c *Child) Until(t testing.TB, pred func() bool) bool {
	t.Helper()
	timeout := time.After(time.Minute)
	for !pred() {
		select {
		case <-c.Exited:
			if err := c.Kill(); err != nil {
				t.Fatalf("%v: %v", c.Args, err)
			}
			return false
		case <-timeout:
			t.Fatalf("%v: no progress in a minute", c.Args)
		case <-time.After(5 * time.Millisecond):
		}
	}
	return true
}

// Kill SIGKILLs what is left of the command's process group, reaps the
// command and returns its exit error: nil if it had already exited 0. Only
// the first call signals; later ones return the same error.
func (c *Child) Kill() error {
	c.once.Do(func() {
		_ = syscall.Kill(-c.Process.Pid, syscall.SIGKILL) // ESRCH: the whole group has exited
		c.exitErr = c.Wait()
	})
	return c.exitErr
}

// waitExited blocks until process pid has exited and leaves it unreaped.
func waitExited(pid int) {
	const pPID = 1      // waitid's idtype for one process id
	var info [16]uint64 // a siginfo_t, which waitid fills in
	for {
		_, _, errno := syscall.Syscall6(syscall.SYS_WAITID, pPID, uintptr(pid),
			uintptr(unsafe.Pointer(&info)), syscall.WEXITED|syscall.WNOWAIT, 0, 0)
		if errno != syscall.EINTR {
			return
		}
	}
}
