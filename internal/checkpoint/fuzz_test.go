package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"testing"
)

// framed wraps payload in a well-formed GCKP0007 frame — magic, type,
// length, payload, CRC — so bytes the fuzzer invents reach the section
// parser instead of dying at the checksum.
func framed(payload []byte) []byte {
	out := append([]byte(nil), magic...)
	out = append(out, frameSnapshot)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
}

// asHead makes head the head section of a payload whose other sections
// are empty, so bytes the fuzzer invents reach the gob decoder.
func asHead(head []byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(head)))
	out = append(out, head...)
	return append(out, make([]byte, 4*(sectionCount-1))...)
}

// FuzzCheckpointRead feeds arbitrary bytes to Read three times: as a
// checkpoint file, as the payload of a correctly framed one, and as the
// head section of one. Each way Read returns a snapshot or an ErrCorrupt —
// never another error, never a panic — and what reading a file allocates
// is bounded by the file's own length, whatever lengths its header, its
// sections and its model's layer specs declare. The committed corpus holds
// real GCKP0007 snapshots (flat, and two shards with the coordinator's
// per-shard streams in Policy), each cut at every frame boundary, with a
// flipped CRC, under the three previous magics, with a weight section one
// value shorter and five values longer than the layer specs need, and the
// 13-byte header that used to ask for 4 GiB.
func FuzzCheckpointRead(f *testing.F) {
	var valid bytes.Buffer
	if err := Write(&valid, sampleSnapshot()); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte("GCKP0007\x01\xff\xff\xff\xff"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		snap, err := Read(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Read failed with an untyped error: %v", err)
		}
		if (snap == nil) == (err == nil) {
			t.Fatalf("Read returned snapshot %v with error %v", snap != nil, err)
		}
		// Twice the input for the doubling buffer, once more for what gob
		// builds from an honest head and for the records (the weight block
		// is kept as read), and a fixed allowance for gob's own machinery
		// (its first decode compiles the Snapshot type).
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(3*len(data))+8<<20; grew > limit {
			t.Fatalf("Read allocated %d bytes for a %d-byte input (limit %d)", grew, len(data), limit)
		}
		for _, wrap := range []struct {
			name string
			file []byte
		}{{"a framed payload", framed(data)}, {"a framed head section", framed(asHead(data))}} {
			if snap, err := Read(bytes.NewReader(wrap.file)); err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Read of %s failed with an untyped error: %v", wrap.name, err)
			} else if (snap == nil) == (err == nil) {
				t.Fatalf("Read of %s returned snapshot %v with error %v", wrap.name, snap != nil, err)
			}
		}
	})
}
