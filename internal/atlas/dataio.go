package atlas

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Dataset serialization. The paper's processed measurement dataset is
// published for other researchers (§2.4); this codec gives our synthetic
// counterpart the same property: a compact, versioned binary format that
// round-trips the cleaned corpus, so expensive simulations can be archived
// and re-analyzed without re-running them.
//
// The on-disk format is row-shaped (one 5- or 6-byte record per cell) and
// predates the columnar in-memory store; Save gathers each record from the
// column slices and Load scatters them back, so the byte stream is identical
// to what the original row store produced.

// datasetMagic identifies the format and version.
var datasetMagic = [8]byte{'A', 'T', 'L', 'D', 'S', '0', '0', '1'}

// cellSlabBytes bounds how many bytes of cells Save and LoadDataset move per
// write or read.
const cellSlabBytes = 64 << 10

// ErrBadDatasetFile marks a corrupt or foreign file.
var ErrBadDatasetFile = errors.New("atlas: not a dataset file")

// Save writes the dataset in the binary format.
func (d *Dataset) Save(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(datasetMagic[:]); err != nil {
		return err
	}
	writeU32 := func(v int) error {
		var buf [4]byte
		binary.LittleEndian.PutUint32(buf[:], uint32(v))
		_, err := bw.Write(buf[:])
		return err
	}
	for _, v := range []int{d.StartMinute, d.BinMinutes, d.Bins, d.RawBinMinutes, d.RawBins, d.NumVPs, len(d.Letters), len(d.raw)} {
		if err := writeU32(v); err != nil {
			return err
		}
	}
	if _, err := bw.Write(d.Letters); err != nil {
		return err
	}
	rawLetters := make([]byte, 0, len(d.raw))
	for _, l := range d.Letters {
		if _, ok := d.raw[l]; ok {
			rawLetters = append(rawLetters, l)
		}
	}
	if _, err := bw.Write(rawLetters); err != nil {
		return err
	}
	// Exclusions: flag byte + length-prefixed reason.
	for vp := 0; vp < d.NumVPs; vp++ {
		flag := byte(0)
		if d.Excluded[vp] {
			flag = 1
		}
		if err := bw.WriteByte(flag); err != nil {
			return err
		}
		reason := d.ExcludedReason[vp]
		if err := bw.WriteByte(byte(len(reason))); err != nil {
			return err
		}
		if _, err := bw.WriteString(reason); err != nil {
			return err
		}
	}
	// Cells are packed into a slab and written a slab at a time: a write per
	// 5- or 6-byte cell is millions of calls per archive.
	slab := make([]byte, 0, cellSlabBytes)
	flush := func() error {
		_, err := bw.Write(slab)
		slab = slab[:0]
		return err
	}
	// Binned cells: site int16, status uint8, rtt uint16.
	for li := range d.Letters {
		st, si, rt := d.binStatus[li], d.binSite[li], d.binRTT[li]
		for j := range st {
			if len(slab)+5 > cellSlabBytes {
				if err := flush(); err != nil {
					return err
				}
			}
			slab = append(slab, byte(si[j]), byte(uint16(si[j])>>8), byte(st[j]), byte(rt[j]), byte(rt[j]>>8))
		}
	}
	// Raw cells: site int16, server int8, status uint8, rtt uint16.
	for _, l := range rawLetters {
		rc := d.raw[l]
		for j := range rc.status {
			if len(slab)+6 > cellSlabBytes {
				if err := flush(); err != nil {
					return err
				}
			}
			site, server := rc.at(d.ssTable, j)
			slab = append(slab, byte(site), byte(uint16(site)>>8), byte(server), byte(rc.status[j]), byte(rc.rtt[j]), byte(rc.rtt[j]>>8))
		}
	}
	if err := flush(); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadDataset reads a dataset written by Save. The returned dataset is
// sealed: raw (site, server) identities are interned.
func LoadDataset(r io.Reader) (*Dataset, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadDatasetFile, err)
	}
	if magic != datasetMagic {
		return nil, ErrBadDatasetFile
	}
	readU32 := func() (int, error) {
		var buf [4]byte
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return 0, err
		}
		return int(binary.LittleEndian.Uint32(buf[:])), nil
	}
	var hdr [8]int
	for i := range hdr {
		v, err := readU32()
		if err != nil {
			return nil, fmt.Errorf("atlas: dataset header: %w", err)
		}
		hdr[i] = v
	}
	startMinute, binMinutes, bins, rawBinMinutes, rawBins, numVPs, nLetters, nRaw := hdr[0], hdr[1], hdr[2], hdr[3], hdr[4], hdr[5], hdr[6], hdr[7]
	const maxPlausible = 1 << 26
	if binMinutes <= 0 || bins <= 0 || rawBinMinutes <= 0 || numVPs <= 0 ||
		nLetters <= 0 || nLetters > 26 || nRaw < 0 || nRaw > nLetters ||
		numVPs*bins > maxPlausible || numVPs*rawBins > maxPlausible {
		return nil, ErrBadDatasetFile
	}
	letters := make([]byte, nLetters)
	if _, err := io.ReadFull(br, letters); err != nil {
		return nil, err
	}
	rawLetters := make([]byte, nRaw)
	if _, err := io.ReadFull(br, rawLetters); err != nil {
		return nil, err
	}
	d := NewDataset(letters, rawLetters, numVPs, startMinute, binMinutes, bins, rawBinMinutes)
	if d.RawBins != rawBins {
		return nil, fmt.Errorf("atlas: dataset raw-bin mismatch: %d vs %d", d.RawBins, rawBins)
	}
	for vp := 0; vp < numVPs; vp++ {
		flag, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		rlen, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		reason := make([]byte, rlen)
		if _, err := io.ReadFull(br, reason); err != nil {
			return nil, err
		}
		if flag == 1 {
			d.Excluded[vp] = true
			d.ExcludedReason[vp] = string(reason)
		}
	}
	slab := make([]byte, cellSlabBytes)
	for li := range letters {
		st, si, rt := d.binStatus[li], d.binSite[li], d.binRTT[li]
		for lo := 0; lo < len(st); lo += cellSlabBytes / 5 {
			hi := min(lo+cellSlabBytes/5, len(st))
			chunk := slab[:(hi-lo)*5]
			if _, err := io.ReadFull(br, chunk); err != nil {
				return nil, fmt.Errorf("atlas: dataset binned cells: %w", err)
			}
			for j := lo; j < hi; j, chunk = j+1, chunk[5:] {
				si[j] = int16(binary.LittleEndian.Uint16(chunk))
				st[j] = Status(chunk[2])
				rt[j] = binary.LittleEndian.Uint16(chunk[3:])
			}
		}
	}
	for _, l := range rawLetters {
		rc := d.raw[l]
		if rc == nil {
			// A raw letter the file does not list among its letters.
			return nil, ErrBadDatasetFile
		}
		for lo := 0; lo < len(rc.status); lo += cellSlabBytes / 6 {
			hi := min(lo+cellSlabBytes/6, len(rc.status))
			chunk := slab[:(hi-lo)*6]
			if _, err := io.ReadFull(br, chunk); err != nil {
				return nil, fmt.Errorf("atlas: dataset raw cells: %w", err)
			}
			for j := lo; j < hi; j, chunk = j+1, chunk[6:] {
				rc.site[j] = int16(binary.LittleEndian.Uint16(chunk))
				rc.server[j] = int8(chunk[2])
				rc.status[j] = Status(chunk[3])
				rc.rtt[j] = binary.LittleEndian.Uint16(chunk[4:])
			}
		}
	}
	d.Seal()
	return d, nil
}
