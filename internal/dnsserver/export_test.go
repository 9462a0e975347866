package dnsserver

// idleCount reports how many connected UDP sockets p keeps between probes.
func (p *Prober) idleCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle)
}
