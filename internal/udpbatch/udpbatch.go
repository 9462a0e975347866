// Package udpbatch moves UDP datagrams in batches, amortizing the per-packet
// syscall and socket-lock cost that dominates a DNS flood workload.
//
// On linux/amd64 and linux/arm64 a Conn drives recvmmsg(2)/sendmmsg(2)
// through the runtime poller (syscall.RawConn), so one read-lock acquisition
// and one kernel crossing can move an entire batch; everywhere else it
// degrades to the stdlib's netip-based single-packet calls with the same
// API. Either way the steady-state path performs zero heap allocations: all
// message headers, iovecs, control messages and sockaddr storage live in
// the Conn.
//
// On linux a write also coalesces each run of consecutive messages with the
// same Addr and N into one sendmmsg header: one iovec per message, pointing
// at the caller's Buf, and a UDP_SEGMENT control message set to N (UDP
// GSO, linux 4.18+). Route lookup, IP output and device transmit are then
// paid once per run instead of once per datagram. A run holds at most 64
// datagrams and one IP datagram's worth of payload. Receivers that have not
// enabled UDP_GRO get the run back as separate datagrams, in order, with
// the same bytes and source as separate sends. If the kernel refuses a run
// (EINVAL, EIO or EOPNOTSUPP: a device without checksum offload, a segment
// over the route's MTU, a socket without UDP checksums), the run is resent
// one datagram per header; if that succeeds the Conn stops coalescing. If
// it fails too, the peer refused it: WriteBatch reports the error at that
// message, and while the next batch begins with that peer its runs are not
// tried again. A kernel without UDP GSO is detected when the Conn is made,
// and nothing is coalesced on it.
//
// Runs form when one peer gets several equal-sized datagrams in a row: a
// load generator's batch of one query to one server, or a server's RRL
// slips to a flood from a single source address and port. Replies to a
// flood from many sources, spoofed or just interleaved, form none, so a
// server's sends under such a flood save nothing.
//
// Several Conns may wrap the same *net.UDPConn (one per server worker).
// Each Conn's batch state is single-goroutine; concurrency comes from many
// Conns, whose reads interleave under the socket's poller lock exactly like
// concurrent ReadFromUDP calls would. Deadlines set on the underlying
// *net.UDPConn are honored: a deadline wake surfaces as a net.Error with
// Timeout() == true, which is how the server drains its workers.
package udpbatch

import (
	"net"
	"net/netip"
)

// Message is one datagram in a batch. Buf is caller-owned backing storage;
// N is the datagram length within Buf (set by ReadBatch, read by
// WriteBatch); Addr is the peer (source after a read, destination for a
// write).
type Message struct {
	Buf  []byte
	N    int
	Addr netip.AddrPort
}

// Conn batches datagram I/O on a *net.UDPConn. Not safe for concurrent use;
// create one Conn per worker goroutine.
type Conn struct {
	conn *net.UDPConn
	os   osConn
}

// New wraps conn for batched I/O with at most batch messages per syscall.
func New(conn *net.UDPConn, batch int) (*Conn, error) {
	if batch < 1 {
		batch = 1
	}
	c := &Conn{conn: conn}
	if err := c.os.init(conn, batch); err != nil {
		return nil, err
	}
	return c, nil
}

// Batched reports whether the platform moves whole batches per syscall
// (false means the single-packet fallback is active).
func (c *Conn) Batched() bool { return batched }

// ReadBatch fills ms with received datagrams and returns how many arrived.
// It blocks until at least one datagram is available or the read deadline
// passes; it never waits to fill the whole batch.
func (c *Conn) ReadBatch(ms []Message) (int, error) { return c.os.readBatch(c.conn, ms) }

// WriteBatch sends ms[i].Buf[:ms[i].N] to ms[i].Addr for every message and
// returns how many were handed to the kernel before any error. The count is
// in messages, however they were coalesced: on an error, ms[n] is the
// message the kernel refused.
func (c *Conn) WriteBatch(ms []Message) (int, error) { return c.os.writeBatch(c.conn, ms) }
