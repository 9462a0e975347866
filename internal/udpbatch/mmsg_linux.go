//go:build linux && (amd64 || arm64)

package udpbatch

import (
	"net"
	"net/netip"
	"syscall"
	"unsafe"
)

const batched = true

// mmsghdr mirrors struct mmsghdr from recvmmsg(2): a plain msghdr plus the
// kernel-filled datagram length. Both supported arches are 64-bit, so the
// trailing pad brings the struct to the kernel's 64-byte layout.
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
	_   [4]byte
}

// UDP generic segmentation offload (udp(7), linux >= 4.18): a sendmsg
// carrying a SOL_UDP/UDP_SEGMENT cmsg of size s sends its payload as
// datagrams of s bytes each, paying route lookup, IP output and device
// transmit once for the whole run. Every kernel with UDP GSO takes 64
// segments per send (UDP_MAX_SEGMENTS; newer ones take more) and one IP
// datagram's worth of payload: maxRunBytes is the IPv4 limit, the smaller
// of the two families'.
const (
	udpSegment     = 103 // UDP_SEGMENT; the frozen syscall package predates it
	maxRunSegments = 64
	maxRunBytes    = 65535 - 20 - 8
)

// segCmsg is one UDP_SEGMENT control message laid out as CMSG_SPACE(2):
// the header, the uint16 segment size, and padding to 8 bytes.
type segCmsg struct {
	hdr  syscall.Cmsghdr
	size uint16
	_    [6]byte
}

// osConn is the per-Conn mmsg state. The syscall callbacks are built once
// in init and communicate through the struct fields, so the hot path never
// allocates a closure; cur/off/n/errno are only touched while the poller
// holds the fd's read or write lock on behalf of this goroutine.
type osConn struct {
	rc    syscall.RawConn
	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	names []syscall.RawSockaddrAny
	segs  []segCmsg // segs[h] is header h's UDP_SEGMENT cmsg when it carries a run

	// plain turns run coalescing off: set at init when the kernel has no
	// UDP GSO, and after the kernel refused a run that then went out one
	// datagram per header.
	plain bool
	// refused is the peer of a refused run whose one-per-header resend
	// failed too: the peer, not the segmentation, was refused. The caller
	// skips that one message and writes the rest again, so while a batch
	// still begins with this peer its runs go out per datagram rather than
	// being refused as a run once more.
	refused netip.AddrPort

	readFn  func(fd uintptr) bool
	writeFn func(fd uintptr) bool
	cur     int // headers in the current batch
	off     int // headers already sent (write path)
	n       int // result of the last syscall
	errno   syscall.Errno
}

func (c *osConn) init(conn *net.UDPConn, batch int) error {
	rc, err := conn.SyscallConn()
	if err != nil {
		return err
	}
	c.rc = rc
	c.hdrs = make([]mmsghdr, batch)
	c.iovs = make([]syscall.Iovec, batch)
	c.names = make([]syscall.RawSockaddrAny, batch)
	c.segs = make([]segCmsg, batch)
	for i := range c.segs {
		c.segs[i].hdr.Level = syscall.IPPROTO_UDP
		c.segs[i].hdr.Type = udpSegment
		c.segs[i].hdr.SetLen(syscall.CmsgLen(2))
	}
	// A kernel without UDP GSO ignores a SOL_UDP cmsg and would send a
	// run as one long datagram; such a kernel also rejects the option
	// here, so coalescing stays off on it.
	var probeErr error
	if err := rc.Control(func(fd uintptr) {
		_, probeErr = syscall.GetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpSegment)
	}); err != nil {
		return err
	}
	c.plain = probeErr != nil
	c.readFn = func(fd uintptr) bool {
		n, _, e := syscall.Syscall6(sysRecvmmsg, fd,
			uintptr(unsafe.Pointer(&c.hdrs[0])), uintptr(c.cur), 0, 0, 0)
		if e == syscall.EAGAIN {
			return false // not readable yet; poller waits for the fd
		}
		c.n, c.errno = int(n), e
		return true
	}
	c.writeFn = func(fd uintptr) bool {
		n, _, e := syscall.Syscall6(sysSendmmsg, fd,
			uintptr(unsafe.Pointer(&c.hdrs[c.off])), uintptr(c.cur-c.off), 0, 0, 0)
		if e == syscall.EAGAIN {
			return false
		}
		c.n, c.errno = int(n), e
		return true
	}
	return nil
}

func (c *osConn) readBatch(_ *net.UDPConn, ms []Message) (int, error) {
	if len(ms) > len(c.hdrs) {
		ms = ms[:len(c.hdrs)]
	}
	for i := range ms {
		c.iovs[i].Base = &ms[i].Buf[0]
		c.iovs[i].SetLen(len(ms[i].Buf))
		h := &c.hdrs[i]
		h.hdr.Name = (*byte)(unsafe.Pointer(&c.names[i]))
		h.hdr.Namelen = uint32(unsafe.Sizeof(c.names[i]))
		h.hdr.Iov = &c.iovs[i]
		h.hdr.Iovlen = 1
		h.hdr.Control = nil
		h.hdr.Controllen = 0
		h.len = 0
	}
	c.cur = len(ms)
	if err := c.rc.Read(c.readFn); err != nil {
		return 0, err
	}
	if c.errno != 0 {
		return 0, c.errno
	}
	for i := 0; i < c.n; i++ {
		ms[i].N = int(c.hdrs[i].len)
		ms[i].Addr = sockaddrToAddrPort(&c.names[i])
	}
	return c.n, nil
}

// writeBatch sends ms with as few headers as layout allows, resuming at the
// cut when sendmmsg takes fewer headers than asked. It counts in messages:
// a header carries Iovlen of them.
func (c *osConn) writeBatch(_ *net.UDPConn, ms []Message) (int, error) {
	if len(ms) > len(c.hdrs) {
		ms = ms[:len(c.hdrs)]
	}
	if len(ms) == 0 || ms[0].Addr != c.refused {
		c.refused = netip.AddrPort{}
	}
	c.cur, c.off = c.layout(ms, !c.plain), 0
	sent, refusedEnd := 0, 0 // messages handed to the kernel; end of a refused run
	for c.off < c.cur {
		if err := c.rc.Write(c.writeFn); err != nil {
			return sent, err
		}
		if c.errno != 0 {
			if run := int(c.hdrs[c.off].hdr.Iovlen); run > 1 && gsoRefused(c.errno) {
				// The kernel (or the route's device) will not segment:
				// send the rest of the batch one datagram per header.
				refusedEnd = sent + run
				c.cur, c.off = c.layout(ms[sent:], false), 0
				continue
			}
			if sent < refusedEnd {
				c.refused = ms[sent].Addr // every message of the run shares it
			}
			return sent, c.errno
		}
		for i := c.off; i < c.off+c.n; i++ {
			sent += int(c.hdrs[i].hdr.Iovlen)
		}
		c.off += c.n
		if refusedEnd > 0 && sent >= refusedEnd {
			c.plain = true // the refused run went out per datagram
		}
	}
	return sent, nil
}

// layout fills one header per run of consecutive messages that share Addr
// and N, up to maxRunSegments segments and maxRunBytes of payload, and
// returns the header count. The run's iovecs point at the callers' own
// buffers, one per message, and its UDP_SEGMENT cmsg carries N. A run of
// one message, a run to the refused peer, and every message when coalesce
// is false, gets a plain header with no cmsg.
func (c *osConn) layout(ms []Message, coalesce bool) int {
	h := 0
	for i := 0; i < len(ms); h++ {
		first := &ms[i]
		run := 1
		c.iovs[i].Base = &first.Buf[0]
		c.iovs[i].SetLen(first.N)
		if coalesce && first.N > 0 && first.Addr != c.refused {
			for i+run < len(ms) && run < maxRunSegments && (run+1)*first.N <= maxRunBytes &&
				ms[i+run].N == first.N && ms[i+run].Addr == first.Addr {
				c.iovs[i+run].Base = &ms[i+run].Buf[0]
				c.iovs[i+run].SetLen(first.N)
				run++
			}
		}
		hdr := &c.hdrs[h].hdr
		hdr.Name = (*byte)(unsafe.Pointer(&c.names[h]))
		hdr.Namelen = putSockaddr(&c.names[h], first.Addr)
		hdr.Iov = &c.iovs[i]
		hdr.Iovlen = uint64(run)
		if run > 1 {
			c.segs[h].size = uint16(first.N)
			hdr.Control = (*byte)(unsafe.Pointer(&c.segs[h]))
			hdr.SetControllen(int(unsafe.Sizeof(c.segs[h])))
		} else {
			hdr.Control = nil
			hdr.Controllen = 0
		}
		i += run
	}
	return h
}

// gsoRefused reports whether errno is how the kernel refuses a segmented
// send: EINVAL for a segment the route's MTU cannot carry or a socket
// without UDP checksums, EIO for a device without checksum offload,
// EOPNOTSUPP where the protocol has no GSO.
func gsoRefused(errno syscall.Errno) bool {
	return errno == syscall.EINVAL || errno == syscall.EIO || errno == syscall.EOPNOTSUPP
}

// htons converts a port to network byte order; both supported arches are
// little-endian, so this is an unconditional swap.
func htons(p uint16) uint16 { return p>>8 | p<<8 }

// sockaddrToAddrPort converts a kernel-filled sockaddr without allocating.
func sockaddrToAddrPort(rsa *syscall.RawSockaddrAny) netip.AddrPort {
	switch rsa.Addr.Family {
	case syscall.AF_INET:
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(rsa))
		return netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), htons(sa.Port))
	case syscall.AF_INET6:
		sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(rsa))
		return netip.AddrPortFrom(netip.AddrFrom16(sa.Addr), htons(sa.Port))
	default:
		return netip.AddrPort{}
	}
}

// putSockaddr fills rsa for ap and returns the sockaddr length. 4-in-6
// mapped addresses are unmapped so an IPv4-only socket accepts them.
func putSockaddr(rsa *syscall.RawSockaddrAny, ap netip.AddrPort) uint32 {
	a := ap.Addr()
	if a.Is4() || a.Is4In6() {
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(rsa))
		sa.Family = syscall.AF_INET
		sa.Port = htons(ap.Port())
		sa.Addr = a.As4()
		return syscall.SizeofSockaddrInet4
	}
	sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(rsa))
	sa.Family = syscall.AF_INET6
	sa.Port = htons(ap.Port())
	sa.Addr = a.As16()
	sa.Flowinfo = 0
	sa.Scope_id = 0
	return syscall.SizeofSockaddrInet6
}
