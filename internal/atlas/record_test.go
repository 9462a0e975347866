package atlas

// record is the tests' one-probe form of the row writer runVP uses.
func (d *Dataset) record(vp VPID, letter byte, minute int, site int, server int, status Status, rttMs float64) {
	if w, ok := d.rowWriter(vp, letter); ok {
		w.record(minute, site, server, status, rttMs)
	}
}
