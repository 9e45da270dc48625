package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"geomancy/internal/core"
	"geomancy/internal/nn"
	"geomancy/internal/workload"
)

// longSnapshot is sampleSnapshot with a 64 KB model and 3 000 records in
// each history section, so the weights and every section cross several of
// the writer's chunks. Every value is a function of its position alone:
// unlike a facade snapshot, whose train reports carry wall-clock
// durations, it encodes to the same bytes on every run.
func longSnapshot() *Snapshot {
	snap := sampleSnapshot()
	rng := rand.New(rand.NewSource(72))
	snap.Engine.Net = nn.NewNetwork(6).AddDense(1024, nn.ReLU, rng).AddDense(1, nn.Linear, rng).State()
	snap.Stats = make([]workload.RunStats, 3000)
	snap.Loop.TrainLog = make([]core.TrainReport, 3000)
	snap.Loop.Movements = make([]core.MovementEvent, 3000)
	next := int64(1)
	for _, recs := range []any{snap.Stats, snap.Loop.TrainLog, snap.Loop.Movements} {
		v := reflect.ValueOf(recs)
		for i := range v.Len() {
			fill(v.Index(i), &next)
		}
	}
	return snap
}

// longSnapshotSHA256 is the SHA-256 of longSnapshot's file as the encoder
// that built each file in one buffer wrote it, before writes streamed.
const longSnapshotSHA256 = "089bfbf7bb2e14cd7a11444e4e2d4c5de3471d96cc5afd4eb906e47a44b43db0"

// TestWriteMatchesParentBytes: Write and Save give the same bytes for a
// snapshot whose model weights are captured (Params) and for the same
// snapshot with its weights read back as a block (Weights), and those
// bytes are the ones the one-buffer encoder wrote.
func TestWriteMatchesParentBytes(t *testing.T) {
	captured := longSnapshot()
	var block []byte
	for _, p := range captured.Engine.Net.Params {
		for _, v := range p {
			block = binary.LittleEndian.AppendUint64(block, math.Float64bits(v))
		}
	}
	read := longSnapshot()
	if err := read.Engine.Net.SetWeights(block); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for name, snap := range map[string]*Snapshot{"captured": captured, "read": read} {
		var buf bytes.Buffer
		if err := Write(&buf, snap); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name+".ckpt")
		if err := Save(path, snap); err != nil {
			t.Fatal(err)
		}
		saved, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saved, buf.Bytes()) {
			t.Errorf("%s weights: Save wrote %d bytes that differ from Write's %d", name, len(saved), buf.Len())
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != longSnapshotSHA256 {
			t.Errorf("%s weights: the %d-byte file hashes to %s, want %s", name, buf.Len(), got, longSnapshotSHA256)
		}
	}
}

// failingWriter accepts limit bytes, then fails: the write that crosses
// the limit with errFirst, any later one with errLater.
type failingWriter struct {
	limit, n int
	failed   bool
}

var errFirst, errLater = errors.New("first write error"), errors.New("later write error")

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.failed {
		return 0, errLater
	}
	if w.n+len(p) <= w.limit {
		w.n += len(p)
		return len(p), nil
	}
	n := w.limit - w.n
	w.n, w.failed = w.limit, true
	return n, errFirst
}

// TestWriteReturnsFirstError: a writer that fails partway — before the
// first byte, in the frame header, in the head, in each of the other
// sections, or in the CRC — makes Write return that first error.
func TestWriteReturnsFirstError(t *testing.T) {
	snap := longSnapshot()
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	file := buf.Bytes()
	cuts := map[string]int{"nothing written": 0, "frame header": frameHeader - 2, "CRC": len(file) - 2}
	at := frameHeader
	for _, name := range sectionNames {
		n := int(binary.LittleEndian.Uint32(file[at:]))
		if n == 0 {
			t.Fatalf("the %s section is empty", name)
		}
		cuts[name] = at + 4 + n/2
		at += 4 + n
	}
	for name, k := range cuts {
		w := &failingWriter{limit: k}
		if err := Write(w, snap); !errors.Is(err, errFirst) {
			t.Errorf("failing in the %s (after %d of %d bytes): err = %v, want %v", name, k, len(file), err, errFirst)
		}
	}
	if err := Write(&failingWriter{limit: len(file)}, snap); err != nil {
		t.Errorf("a writer that takes the whole %d-byte file: %v", len(file), err)
	}
}
