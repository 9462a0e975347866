package dnsserver

import (
	"errors"
	"net"
	"syscall"
	"time"

	"github.com/rootevent/anycastddos/internal/dnswire"
)

// TCP support: each Server can also accept DNS over TCP on the same
// address. TCP queries bypass RRL — a completed handshake proves the source
// is not spoofed, which is exactly why RRL's truncated "slip" responses
// push legitimate clients to retry over TCP (§2.3).

// StartTCP begins accepting TCP connections on the same IP/port as the UDP
// socket. It must be called at most once, before Close.
func (s *Server) StartTCP() error {
	addr := s.Addr()
	ln, err := net.ListenTCP("tcp", &net.TCPAddr{IP: addr.IP, Port: addr.Port})
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.tcpLn = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.serveTCP(ln)
	return nil
}

// pairBindAttempts bounds StartWithTCP's search for a free ephemeral port.
const pairBindAttempts = 32

// StartWithTCP starts a server with TCP beside UDP on the same address.
// StartTCP binds the port number the kernel chose for UDP, and the TCP port
// space is separate, so with an ephemeral cfg.Addr (port 0) another socket
// may already hold it: on EADDRINUSE the pair is closed and a fresh one
// tried, up to pairBindAttempts times. A pinned port makes one attempt.
func StartWithTCP(cfg Config) (*Server, error) {
	for try := 1; ; try++ {
		s, err := Start(cfg)
		if err != nil {
			return nil, err
		}
		if err = s.StartTCP(); err == nil {
			return s, nil
		}
		err = errors.Join(err, s.Close())
		if !errors.Is(err, syscall.EADDRINUSE) || !ephemeral(cfg.Addr) || try == pairBindAttempts {
			return nil, err
		}
	}
}

// ephemeral reports whether addr (a Config.Addr) leaves the port to the
// kernel.
func ephemeral(addr string) bool {
	if addr == "" {
		return true
	}
	_, port, err := net.SplitHostPort(addr)
	return err == nil && port == "0"
}

func (s *Server) serveTCP(ln *net.TCPListener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // closed
		}
		// While draining, refuse new connections but keep accepting — an
		// undrained (re-announced) site must serve TCP again without a
		// listener restart.
		if s.draining.Load() {
			conn.Close()
			continue
		}
		// Track the connection so Close can wake its blocked reads while
		// letting an in-flight reply finish (graceful drain).
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			conn.Close()
			return
		}
		if s.tcpConns == nil {
			s.tcpConns = make(map[net.Conn]struct{})
		}
		s.tcpConns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handleTCPConn(conn)
	}
}

// tcpIdleTimeout bounds how long an idle TCP client may hold a connection.
const tcpIdleTimeout = 5 * time.Second

func (s *Server) handleTCPConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.tcpConns, conn)
		s.mu.Unlock()
	}()
	// Per-connection scratch, reused for every query on the connection.
	q := messages.Get().(*dnswire.Message)
	defer messages.Put(q)
	var buf []byte
	out := make([]byte, 0, 1024)
	for {
		// Re-arm the idle deadline under mu so it cannot overwrite the
		// past-deadline nudge a concurrent Close or SetDraining just
		// applied.
		s.mu.Lock()
		if s.closed.Load() || s.draining.Load() {
			s.mu.Unlock()
			return
		}
		err := conn.SetReadDeadline(time.Now().Add(tcpIdleTimeout))
		s.mu.Unlock()
		if err != nil {
			return
		}
		raw, err := dnswire.ReadTCP(conn, buf)
		if err != nil {
			return
		}
		buf = raw[:0]
		s.received.Add(1)

		reply, ok := s.tcpReply(raw, q, out)
		if !ok {
			return
		}
		out = reply
		if err := dnswire.WriteTCP(conn, out); err != nil {
			s.ignored.Add(1) // the peer is gone; the reply still resolves its query
			return
		}
		s.answered.Add(1)
	}
}
