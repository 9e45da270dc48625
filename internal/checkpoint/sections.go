package checkpoint

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"geomancy/internal/core"
	"geomancy/internal/workload"
)

// sectionCount is how many sections a payload holds, sectionNames what
// errors call them, in payload order.
const sectionCount = 5

var sectionNames = [sectionCount]string{"head", "weights", "stats", "train log", "movements"}

// The record widths of the fixed-width sections.
const (
	statsWidth    = 8 * 8   // workload.RunStats
	trainWidth    = 8*8 + 1 // core.TrainReport
	movementWidth = 4 * 8   // core.MovementEvent
)

// writeSection writes recs as one section: its byte length, then each
// record's fields, width bytes a record, through f's buffer.
func writeSection[T any](f *frameWriter, recs []T, width int, record func(*fields, *T)) {
	f.room(4)
	f.b = binary.LittleEndian.AppendUint32(f.b, uint32(width*len(recs)))
	for i := range recs {
		f.room(width)
		record(&f.fields, &recs[i])
	}
}

// readSection decodes a section of width-byte records; one of any other
// length is corrupt.
func readSection[T any](name string, sec []byte, width int, record func(*fields, *T)) ([]T, error) {
	if len(sec)%width != 0 {
		return nil, fmt.Errorf("%w: %s section of %d bytes is not whole %d-byte records", ErrCorrupt, name, len(sec), width)
	}
	if len(sec) == 0 {
		return nil, nil
	}
	recs := make([]T, len(sec)/width)
	f := fields{b: sec, read: true}
	for i := range recs {
		record(&f, &recs[i])
	}
	return recs, nil
}

// fields moves a record's fields, in declaration order, between the
// struct and its bytes: appending them to b, or with read set taking them
// from the front of b. One function per record type lists its fields, so
// the two directions cannot disagree. An integer is 8 bytes, a float64
// its IEEE bits, a bool one byte, all little-endian.
type fields struct {
	b    []byte
	read bool
}

func (f *fields) u64(v *uint64) {
	if f.read {
		*v, f.b = binary.LittleEndian.Uint64(f.b), f.b[8:]
		return
	}
	f.b = binary.LittleEndian.AppendUint64(f.b, *v)
}

func (f *fields) int(v *int) {
	u := uint64(*v)
	f.u64(&u)
	if f.read {
		*v = int(u)
	}
}

func (f *fields) int64(v *int64) {
	u := uint64(*v)
	f.u64(&u)
	if f.read {
		*v = int64(u)
	}
}

func (f *fields) duration(v *time.Duration) {
	u := uint64(*v)
	f.u64(&u)
	if f.read {
		*v = time.Duration(u)
	}
}

func (f *fields) float64(v *float64) {
	u := math.Float64bits(*v)
	f.u64(&u)
	if f.read {
		*v = math.Float64frombits(u)
	}
}

func (f *fields) bool(v *bool) {
	if f.read {
		*v, f.b = f.b[0] != 0, f.b[1:]
		return
	}
	var b byte
	if *v {
		b = 1
	}
	f.b = append(f.b, b)
}

func runStats(f *fields, s *workload.RunStats) {
	f.int(&s.Run)
	f.int(&s.Accesses)
	f.int64(&s.Bytes)
	f.float64(&s.MeanThroughput)
	f.float64(&s.Duration)
	f.float64(&s.LatencyP50)
	f.float64(&s.LatencyP95)
	f.float64(&s.LatencyP99)
}

func trainReport(f *fields, r *core.TrainReport) {
	f.int(&r.Samples)
	f.int(&r.Epochs)
	f.float64(&r.FinalLoss)
	f.float64(&r.Validation.MARE)
	f.float64(&r.Validation.MAREStd)
	f.float64(&r.Validation.SignedRelErr)
	f.bool(&r.Validation.Diverged)
	f.int(&r.Validation.N)
	f.duration(&r.Duration)
}

func movement(f *fields, m *core.MovementEvent) {
	f.int64(&m.AccessIndex)
	f.int(&m.Moved)
	f.int(&m.Run)
	f.int(&m.Random)
}
