// Package chaos formats and parses the CHAOS-class TXT identities that root
// letters return for hostname.bind / id.server queries (RFC 4892).
//
// Each real root letter answers with its own site/server naming convention;
// the reply format is not standardized, but each letter follows a pattern
// that can be parsed to determine the site and server a vantage point
// reaches (§2.1 of the paper, following Fan et al.). This package defines
// one documented pattern per letter — modeled on the publicly observable
// conventions — and a strict parser that recovers (letter, site, server)
// from a reply string. Replies that match no known pattern feed the
// hijack-detection heuristic in the atlas package.
package chaos

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Identity identifies the server that answered a CHAOS query.
type Identity struct {
	Letter byte   // 'A'..'M'
	Site   string // IATA airport code, upper case, e.g. "AMS"
	Server int    // 1-based server index within the site
}

// String renders the identity in the paper's X-APT-Sn notation.
func (id Identity) String() string {
	return fmt.Sprintf("%c-%s-S%d", id.Letter, id.Site, id.Server)
}

// SiteName renders the X-APT site name used throughout the paper's figures.
func (id Identity) SiteName() string {
	return fmt.Sprintf("%c-%s", id.Letter, id.Site)
}

// Errors returned by the parser.
var (
	ErrUnknownLetter   = errors.New("chaos: unknown root letter")
	ErrPatternMismatch = errors.New("chaos: reply does not match letter pattern")
)

// shape is where a letter's convention puts the site code and the server
// index between its fixed prefix and suffix.
type shape uint8

const (
	numDotSite  shape = iota // "<prefix><n>.<site><suffix>"
	siteNum                  // "<prefix><site><n><suffix>"
	siteDashNum              // "<prefix><site>-<n><suffix>"
)

// pattern describes one letter's identity convention. Site codes appear in
// lower case on the wire.
type pattern struct {
	shape          shape
	prefix, suffix string
}

// patterns holds each letter's convention, indexed by letter-'A'.
// Conventions are stable per letter and intentionally distinct in shape,
// mirroring the diversity of the real deployments.
var patterns = [...]pattern{
	'A' - 'A': {siteNum, "rootns-", ".verisign.com"},
	'B' - 'A': {numDotSite, "b", ".isi.edu"},
	'C' - 'A': {siteNum, "", "b.c.root-servers.org"},
	'D' - 'A': {numDotSite, "d", ".droot.maryland.edu"},
	'E' - 'A': {numDotSite, "e", ".eroot.nasa.gov"},
	'F' - 'A': {siteNum, "", ".f.root-servers.org"},
	'G' - 'A': {siteDashNum, "groot-", ".disa.mil"},
	'H' - 'A': {numDotSite, "h", ".aos.arl.army.mil"},
	'I' - 'A': {numDotSite, "s", ".i.root-servers.org"},
	'J' - 'A': {siteNum, "rootnsj-", ".verisign.com"},
	'K' - 'A': {numDotSite, "ns", ".k.ripe.net"},
	'L' - 'A': {siteNum, "", ".l.root-servers.org"},
	'M' - 'A': {numDotSite, "m", ".wide.ad.jp"},
}

// lookup returns the letter's pattern, or nil for an unknown letter.
func lookup(letter byte) *pattern {
	if letter < 'A' || int(letter-'A') >= len(patterns) {
		return nil
	}
	return &patterns[letter-'A']
}

// format renders the identity of (site, server); site may be in any case.
func (p *pattern) format(site string, server int) string {
	site, n := strings.ToLower(site), strconv.Itoa(server)
	switch p.shape {
	case numDotSite:
		return p.prefix + n + "." + site + p.suffix
	case siteDashNum:
		return p.prefix + site + "-" + n + p.suffix
	default:
		return p.prefix + site + n + p.suffix
	}
}

// match validates a trimmed, lower-cased reply against the pattern and
// returns the site code as it appears in the reply (a substring, so nothing
// is allocated) and the server index. It is the one validator behind Parse
// and Matches.
func (p *pattern) match(txt string) (site string, server int, ok bool) {
	body, ok := strings.CutSuffix(txt, p.suffix)
	if !ok {
		return "", 0, false
	}
	rest, ok := strings.CutPrefix(body, p.prefix)
	if !ok {
		return "", 0, false
	}
	var num string
	switch p.shape {
	case numDotSite:
		num, site, ok = strings.Cut(rest, ".")
	case siteDashNum:
		site, num, ok = strings.Cut(rest, "-")
	default:
		// The server index is the longest numeric suffix.
		i := len(rest)
		for i > 0 && rest[i-1] >= '0' && rest[i-1] <= '9' {
			i--
		}
		site, num, ok = rest[:i], rest[i:], i < len(rest)
	}
	if !ok || !validSite(site) {
		return "", 0, false
	}
	n, err := strconv.Atoi(num)
	if err != nil || n < 1 {
		return "", 0, false
	}
	return site, n, true
}

// validSite reports whether s is a lower-case IATA code.
func validSite(s string) bool {
	if len(s) != 3 {
		return false
	}
	for i := 0; i < 3; i++ {
		if s[i] < 'a' || s[i] > 'z' {
			return false
		}
	}
	return true
}

// normalize strips surrounding space and case from a reply; it returns txt
// itself when there is nothing to strip.
func normalize(txt string) string {
	return strings.ToLower(strings.TrimSpace(txt))
}

// Letters returns the 13 root letters in order.
func Letters() []byte {
	return []byte{'A', 'B', 'C', 'D', 'E', 'F', 'G', 'H', 'I', 'J', 'K', 'L', 'M'}
}

// Format renders the CHAOS TXT identity a given letter's server returns.
func Format(letter byte, site string, server int) (string, error) {
	p := lookup(letter)
	if p == nil {
		return "", ErrUnknownLetter
	}
	if server < 1 {
		return "", fmt.Errorf("chaos: server index %d: must be >= 1", server)
	}
	if !validSite(strings.ToLower(site)) {
		return "", fmt.Errorf("chaos: site %q: must be a 3-letter code", site)
	}
	return p.format(site, server), nil
}

// MustFormat is Format for compile-time-constant inputs (tests and built-in
// tables); it panics on error. Identities derived from configuration must go
// through Format so malformed site codes surface as errors.
func MustFormat(letter byte, site string, server int) string {
	s, err := Format(letter, site, server)
	if err != nil {
		//repolint:allow panic -- Must* contract: inputs are compile-time constants
		panic(err)
	}
	return s
}

// Parse interprets txt as an identity reply from the given letter.
func Parse(letter byte, txt string) (Identity, error) {
	p := lookup(letter)
	if p == nil {
		return Identity{}, ErrUnknownLetter
	}
	site, server, ok := p.match(normalize(txt))
	if !ok {
		return Identity{}, fmt.Errorf("letter %c, reply %q: %w", letter, txt, ErrPatternMismatch)
	}
	return Identity{Letter: letter, Site: strings.ToUpper(site), Server: server}, nil
}

// ParseAny tries all letters and returns the first match. Useful when the
// querier does not know which service answered (e.g. hijack forensics).
func ParseAny(txt string) (Identity, bool) {
	for _, l := range Letters() {
		if id, err := Parse(l, txt); err == nil {
			return id, true
		}
	}
	return Identity{}, false
}

// Matches reports whether txt is a well-formed identity for the letter —
// exactly when Parse succeeds, but without building the Identity or the
// error, so a reply already in wire form (lower case, no surrounding space)
// costs no allocation. The atlas cleaning stage flags VPs whose replies fail this
// check and whose RTTs are implausibly short as hijacked (§2.4.1).
func Matches(letter byte, txt string) bool {
	p := lookup(letter)
	if p == nil {
		return false
	}
	_, _, ok := p.match(normalize(txt))
	return ok
}
