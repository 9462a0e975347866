package atlas

// record is the tests' one-probe walk through what runVP does with a
// world's answer: the outcome is cleaned and recorded as a campaign's probe
// at minute would be.
func (d *Dataset) record(vp VPID, letter byte, minute int, site int, server int, status Status, rttMs float64) {
	if row, ok := d.rowWriter(vp, letter, minute, 1); ok {
		world := &fakeWorld{fn: func(*VP, byte, int) Outcome {
			return Outcome{Status: status, Site: site, Server: server, RTTms: rttMs}
		}}
		var walk Walk
		walk.Reset(1)
		perProbe{world}.ProbeWalk(&VP{ID: vp}, letter, minute, 1, &walk)
		row.fold(&walk, letter)
	}
}
