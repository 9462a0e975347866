//go:build linux && (amd64 || arm64)

package udpbatch

import (
	"net"
	"syscall"
	"testing"
)

// perDatagram turns run coalescing off on c: every message gets its own
// header, the layout the coalescing tests compare against.
func perDatagram(c *Conn) { c.os.plain = true }

// coalescing reports whether c still coalesces runs.
func coalescing(c *Conn) bool { return !c.os.plain }

// lastHeaders returns how many headers c's last write laid out.
func lastHeaders(c *Conn) int { return c.os.cur }

// countWrites counts the sendmmsg calls c makes from now on.
func countWrites(c *Conn) *int {
	n, write := new(int), c.os.writeFn
	c.os.writeFn = func(fd uintptr) bool {
		*n++
		return write(fd)
	}
	return n
}

// refuseGSO makes the kernel refuse segmented sends on conn: UDP GSO needs
// the UDP checksum, and SO_NO_CHECK turns it off (udp(7)).
func refuseGSO(t *testing.T, conn *net.UDPConn) {
	t.Helper()
	rc, err := conn.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_NO_CHECK, 1)
	}); err != nil {
		t.Fatal(err)
	}
	if serr != nil {
		t.Skipf("SO_NO_CHECK: %v", serr)
	}
}
