package dnsserver

// Health observability: the counter snapshot the site manager's monitor
// samples every assessment tick, and the graceful TCP drain hook it pulls
// when a site's route is withdrawn. Both sit outside the packet fast path:
// Snapshot is lock-free atomic loads, and draining touches only the TCP
// side (a withdrawn anycast site keeps answering the UDP queries that
// still reach it from its residual catchment, exactly like the paper's
// withdrawn-but-reachable sites in §6).

// Stats is a cumulative counter snapshot of one server's request
// accounting. Counters are monotonic; subtract two snapshots (Sub) to get
// a per-window delta and rate it.
type Stats struct {
	// Received counts every datagram (or TCP query) pulled off a socket.
	Received uint64
	// Answered counts responses handed to the kernel.
	Answered uint64
	// DroppedLoss counts requests dropped by the configured impairment
	// coin — the "degraded absorber" loss model.
	DroppedLoss uint64
	// DroppedRRL counts responses suppressed by response rate limiting.
	DroppedRRL uint64
	// Ignored counts datagrams that produced no response for protocol
	// reasons: malformed packets, replies mistaken for queries, multi-
	// question messages, or (vanishingly rare) encode failures.
	Ignored uint64
}

// Sub returns the per-window delta s minus prev, saturating at zero so a
// restarted server's counter reset cannot yield wrapped deltas.
func (s Stats) Sub(prev Stats) Stats {
	sat := func(a, b uint64) uint64 {
		if a < b {
			return 0
		}
		return a - b
	}
	return Stats{
		Received:    sat(s.Received, prev.Received),
		Answered:    sat(s.Answered, prev.Answered),
		DroppedLoss: sat(s.DroppedLoss, prev.DroppedLoss),
		DroppedRRL:  sat(s.DroppedRRL, prev.DroppedRRL),
		Ignored:     sat(s.Ignored, prev.Ignored),
	}
}

// LossRate is the fraction of received requests dropped by the impairment
// coin (0 when nothing was received).
func (s Stats) LossRate() float64 {
	if s.Received == 0 {
		return 0
	}
	return float64(s.DroppedLoss) / float64(s.Received)
}

// RRLRate is the fraction of received requests suppressed by RRL (0 when
// nothing was received).
func (s Stats) RRLRate() float64 {
	if s.Received == 0 {
		return 0
	}
	return float64(s.DroppedRRL) / float64(s.Received)
}

// Backlog is the number of received requests not yet resolved to an
// answer, a drop, or an ignore — the in-flight queue depth. Under delay
// impairment this is the visible queue a saturated site builds.
func (s Stats) Backlog() uint64 {
	resolved := s.Answered + s.DroppedLoss + s.DroppedRRL + s.Ignored
	if s.Received < resolved {
		return 0
	}
	return s.Received - resolved
}

// Snapshot returns the server's cumulative request accounting as one
// struct. It is lock-free and safe to call at any rate while the server is
// under load; the counters are read independently, so a snapshot taken
// mid-burst can be transiently inconsistent by a few packets — harmless
// for rate estimation, which is all the health monitor does with it.
func (s *Server) Snapshot() Stats {
	return Stats{
		Received:    s.received.Load(),
		Answered:    s.answered.Load(),
		DroppedLoss: s.droppedLoss.Load(),
		DroppedRRL:  s.droppedRRL.Load(),
		Ignored:     s.ignored.Load(),
	}
}

// Reading reports whether any UDP worker is still reading the socket. A
// worker stops on Close, and also on a read error that is not a timeout;
// once every worker has stopped, the socket still accepts datagrams but
// nothing answers them, which the counters alone cannot tell from an idle
// site.
func (s *Server) Reading() bool { return s.readers.Load() > 0 }

// SetDraining switches the TCP drain state. Draining a server gracefully
// sheds its TCP side — in-flight replies finish, then each connection
// closes at its next read, and new connections are refused — while UDP
// service continues untouched. The site manager drains on route withdraw
// (the paper's operators withdrew a site's announcement, not its power)
// and undrains on re-announce. Idempotent in both directions.
func (s *Server) SetDraining(drain bool) {
	if !drain {
		s.draining.Store(false)
		return
	}
	s.mu.Lock()
	s.draining.Store(true)
	// Nudge the read side of every live TCP connection, exactly like
	// Close: handlers that already read a query finish writing before
	// they notice. Done under mu so a handler cannot re-arm its idle
	// deadline over the nudge.
	for c := range s.tcpConns {
		c.SetReadDeadline(aLongTimeAgo)
	}
	s.mu.Unlock()
}
