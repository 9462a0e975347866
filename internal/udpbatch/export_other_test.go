//go:build !linux || !(amd64 || arm64)

package udpbatch

import (
	"net"
	"testing"
)

// The portable fallback sends one datagram per call and has nothing to
// coalesce; these stand-ins let the coalescing tests run (trivially) here.

func perDatagram(*Conn) {}

func coalescing(*Conn) bool { return false }

func lastHeaders(*Conn) int { return -1 }

func countWrites(*Conn) *int { return new(int) }

func refuseGSO(t *testing.T, _ *net.UDPConn) { t.Skip("no UDP GSO on this platform") }
