package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// KindRows payload (all integers big-endian):
//
//	int64   ID
//	uint32  Epoch
//	uint32  Total   // rows in the whole epoch; 0 = not stated
//	uint32  nrows   // rows in this chunk
//	uint32  ncols   // cells per row; 0 if and only if nrows is 0
//	nrows × ncols × uint64   // math.Float64bits of each cell, row-major
//
// The payload length must equal rowsHeaderLen + nrows×ncols×8 exactly.
const rowsHeaderLen = 8 + 4*4

var errShortRows = errors.New("proto: Rows payload shorter than its header")

func (r RowsOf[R]) appendPayload(buf []byte) ([]byte, error) {
	nrows, ncols := len(r.Rows), 0
	if nrows > 0 {
		ncols = len(r.Rows[0])
		if ncols == 0 {
			// A cell-less row would put a count on the wire with no bytes
			// behind it, which is exactly what decodeRows must refuse.
			return buf, errors.New("rows have no columns")
		}
		if ncols > (MaxFrame-1-rowsHeaderLen)/8/nrows {
			return buf, fmt.Errorf("%d×%d rows exceed the %d-byte frame limit", nrows, ncols, MaxFrame)
		}
	}
	if r.Epoch < 0 || int64(r.Epoch) > math.MaxUint32 || r.Total < 0 || int64(r.Total) > math.MaxUint32 {
		return buf, fmt.Errorf("epoch %d or total %d outside uint32", r.Epoch, r.Total)
	}
	for i, row := range r.Rows {
		if len(row) != ncols {
			return buf, fmt.Errorf("ragged rows: row %d has %d cells, row 0 has %d", i, len(row), ncols)
		}
	}

	off, need := len(buf), rowsHeaderLen+nrows*ncols*8
	buf = slices.Grow(buf, need)[:off+need]
	binary.BigEndian.PutUint64(buf[off:], uint64(r.ID))
	binary.BigEndian.PutUint32(buf[off+8:], uint32(r.Epoch))
	binary.BigEndian.PutUint32(buf[off+12:], uint32(r.Total))
	binary.BigEndian.PutUint32(buf[off+16:], uint32(nrows))
	binary.BigEndian.PutUint32(buf[off+20:], uint32(ncols))
	cells := buf[off+rowsHeaderLen:]
	for _, row := range r.Rows {
		for _, x := range row {
			binary.BigEndian.PutUint64(cells, math.Float64bits(x))
			cells = cells[8:]
		}
	}
	return buf, nil
}

// decodeRows parses a KindRows payload. The claimed shape is checked
// against the payload length before anything is allocated, so a hostile
// nrows or ncols cannot demand more memory than the bytes that arrived
// account for: one cell slab of len(payload)-rowsHeaderLen bytes and
// one row header per ≥8 bytes of it. Like encoding/json, it reuses the
// capacity of r.Rows for the row headers when there is enough.
func decodeRows(payload []byte, r *Rows) error {
	if len(payload) < rowsHeaderLen {
		return errShortRows
	}
	nrows := uint64(binary.BigEndian.Uint32(payload[16:]))
	ncols := uint64(binary.BigEndian.Uint32(payload[20:]))
	body := payload[rowsHeaderLen:]
	// Two uint32s cannot overflow a uint64 product, and the product is
	// compared in cells, so the ×8 cannot overflow either.
	if len(body)%8 != 0 || nrows*ncols != uint64(len(body)/8) || (nrows == 0) != (ncols == 0) {
		return fmt.Errorf("proto: Rows payload claims %d×%d cells but carries %d bytes of them", nrows, ncols, len(body))
	}
	r.ID = int64(binary.BigEndian.Uint64(payload))
	r.Epoch = int(binary.BigEndian.Uint32(payload[8:]))
	r.Total = int(binary.BigEndian.Uint32(payload[12:]))

	n, width := int(nrows), int(ncols)
	slab := make([]float64, n*width)
	for i := range slab {
		slab[i] = math.Float64frombits(binary.BigEndian.Uint64(body[i*8:]))
	}
	rows := r.Rows[:0]
	if cap(rows) < n {
		rows = make([][]float64, 0, n)
	}
	for i := 0; i < n; i++ {
		rows = append(rows, slab[i*width:(i+1)*width:(i+1)*width])
	}
	r.Rows = rows
	return nil
}
