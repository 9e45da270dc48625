package replaydb

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

var (
	goldenAccess = AccessRecord{
		Seq: 42, Time: 123.456, Workload: -2, Run: 7, FileID: 9,
		Path: "/belle2/mc/run00/sim00.root", Device: "pic",
		BytesRead: 1 << 40, BytesWritten: 12345,
		OpenTS: 1600000000, OpenTMS: 999, CloseTS: 1600000001, CloseTMS: 1,
		Throughput: 7.61e9,
	}
	goldenMovement = MovementRecord{Seq: 43, Time: 55.5, FileID: 9, From: "pic", To: "file0", Bytes: 1 << 30, Duration: 1.25, AccessIndex: 4242}
)

// The WAL frames of the two records above, as the encoder that predates
// the exported codec wrote them (captured from the parent commit). Logs
// written by any earlier build must keep opening, so these never change
// without a new magic.
const (
	goldenAccessFrame = "01860000002a0000000000000077be9f1a2fdd5e40feffffff0000000007000000000000000900000000000000" +
		"1b0000002f62656c6c65322f6d632f72756e30302f73696d30302e726f6f7403000000706963" +
		"0000000000010000393000000000000000105e5f00000000e70300000000000001105e5f000000000100000000000000000000287659fc41" +
		"8ea04aaa"
	goldenMovementFrame = "02400000002b000000000000000000000000c04b400900000000000000" +
		"030000007069630500000066696c6530" +
		"0000004000000000000000000000f43f9210000000000000" +
		"20964262"
)

func TestRecordGoldenBytes(t *testing.T) {
	if got := hex.EncodeToString(appendAccessFrame(nil, &goldenAccess)); got != goldenAccessFrame {
		t.Errorf("access frame changed:\n got %s\nwant %s", got, goldenAccessFrame)
	}
	if got := hex.EncodeToString(appendMovementFrame(nil, &goldenMovement)); got != goldenMovementFrame {
		t.Errorf("movement frame changed:\n got %s\nwant %s", got, goldenMovementFrame)
	}

	// A log holding exactly those bytes opens to exactly those records.
	wal, err := hex.DecodeString(hex.EncodeToString(magic) + goldenAccessFrame + goldenMovementFrame)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "golden.wal")
	if err := os.WriteFile(path, wal, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if all := db.All(); len(all) != 1 || all[0] != goldenAccess {
		t.Errorf("replayed accesses = %+v, want the golden record", all)
	}
	if mv := db.Movements(); len(mv) != 1 || mv[0] != goldenMovement {
		t.Errorf("replayed movements = %+v, want the golden record", mv)
	}
	if db.Watermark() != 43 {
		t.Errorf("watermark = %d, want 43", db.Watermark())
	}
}

// sameAccessBits compares two records field by field with floats by bit
// pattern: struct == calls NaN unequal to itself and −0 equal to +0, which
// is exactly what a codec test must not do.
func sameAccessBits(a, b AccessRecord) bool {
	at, bt := math.Float64bits(a.Time), math.Float64bits(b.Time)
	ap, bp := math.Float64bits(a.Throughput), math.Float64bits(b.Throughput)
	a.Time, b.Time, a.Throughput, b.Throughput = 0, 0, 0, 0
	return at == bt && ap == bp && a == b
}

func sameMovementBits(a, b MovementRecord) bool {
	at, bt := math.Float64bits(a.Time), math.Float64bits(b.Time)
	ad, bd := math.Float64bits(a.Duration), math.Float64bits(b.Duration)
	a.Time, b.Time, a.Duration, b.Duration = 0, 0, 0, 0
	return at == bt && ad == bd && a == b
}

// TestRecordRoundTripBits: every field survives encode → decode bit for
// bit, including the floats JSON refused (NaN, ±Inf) or folded (−0), and
// records decode back to back from one buffer.
func TestRecordRoundTripBits(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	floats := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		math.Float64frombits(0x7ff8000000000123), math.SmallestNonzeroFloat64, math.MaxFloat64}
	float := func() float64 {
		if r.Intn(2) == 0 {
			return floats[r.Intn(len(floats))]
		}
		return math.Float64frombits(r.Uint64())
	}
	name := func() string {
		b := make([]byte, r.Intn(40))
		r.Read(b)
		return string(b)
	}
	var accesses []AccessRecord
	var movements []MovementRecord
	var abuf, mbuf []byte
	for i := 0; i < 500; i++ {
		rec := AccessRecord{
			Seq: r.Uint64(), Time: float(), Workload: int32(r.Uint32()), Run: int32(r.Uint32()), FileID: int64(r.Uint64()),
			Path: name(), Device: name(), BytesRead: int64(r.Uint64()), BytesWritten: int64(r.Uint64()),
			OpenTS: int64(r.Uint64()), OpenTMS: int64(r.Uint64()), CloseTS: int64(r.Uint64()), CloseTMS: int64(r.Uint64()),
			Throughput: float(),
		}
		m := MovementRecord{Seq: r.Uint64(), Time: float(), FileID: int64(r.Uint64()), From: name(), To: name(),
			Bytes: int64(r.Uint64()), Duration: float(), AccessIndex: int64(r.Uint64())}
		accesses, movements = append(accesses, rec), append(movements, m)
		abuf, mbuf = AppendAccessRecord(abuf, &rec), AppendMovementRecord(mbuf, &m)
	}
	var adec, mdec Decoder
	adec.Reset(abuf)
	mdec.Reset(mbuf)
	for i := range accesses {
		if rec := adec.Access(); !sameAccessBits(rec, accesses[i]) {
			t.Fatalf("access %d:\n got %+v\nwant %+v", i, rec, accesses[i])
		}
		if m := mdec.Movement(); !sameMovementBits(m, movements[i]) {
			t.Fatalf("movement %d:\n got %+v\nwant %+v", i, m, movements[i])
		}
	}
	if adec.Done() != nil || mdec.Done() != nil {
		t.Errorf("the buffers did not decode whole: %v, %v", adec.Done(), mdec.Done())
	}
}

// TestDecoderInternsNames: records naming the same path and device share
// one string each, and the table stops growing at its bound.
func TestDecoderInternsNames(t *testing.T) {
	var dec Decoder
	buf := AppendAccessRecord(AppendAccessRecord(nil, &goldenAccess), &goldenAccess)
	dec.Reset(buf)
	a, b := dec.Access(), dec.Access()
	if err := dec.Done(); err != nil {
		t.Fatal(err)
	}
	if unsafe.StringData(a.Path) != unsafe.StringData(b.Path) || unsafe.StringData(a.Device) != unsafe.StringData(b.Device) {
		t.Error("two records with equal names hold separate strings")
	}
	if n := testing.AllocsPerRun(100, func() { dec.Reset(buf); dec.Access() }); n != 0 {
		t.Errorf("decoding a record with known names allocates %v times, want 0", n)
	}
	names := AppendString(nil, strings.Repeat("x", maxInternedLen+1))
	for i := 0; i < 2*maxInterned; i++ {
		names = AppendString(names, strconv.Itoa(i))
	}
	dec.Reset(names)
	for dec.Done() != nil {
		dec.Str()
	}
	if len(dec.names) != maxInterned {
		t.Errorf("name table holds %d entries, want the bound %d", len(dec.names), maxInterned)
	}
	for name := range dec.names {
		if len(name) > maxInternedLen {
			t.Errorf("a %d-byte name was interned, over the %d-byte bound", len(name), maxInternedLen)
		}
	}
}

// TestEncoderAllocations pins the two costs the append path used to pay per
// record: the encoder allocates nothing once its buffer has grown, and
// neither a memory-backed nor a steady-state file-backed append allocates
// for the log (index and chunk growth amortise to under one per append).
func TestEncoderAllocations(t *testing.T) {
	buf := AppendAccessRecord(nil, &goldenAccess)
	if n := testing.AllocsPerRun(100, func() { buf = AppendAccessRecord(buf[:0], &goldenAccess) }); n != 0 {
		t.Errorf("AppendAccessRecord allocates %v times per record, want 0", n)
	}
	mbuf := AppendMovementRecord(nil, &goldenMovement)
	if n := testing.AllocsPerRun(100, func() { mbuf = AppendMovementRecord(mbuf[:0], &goldenMovement) }); n != 0 {
		t.Errorf("AppendMovementRecord allocates %v times per record, want 0", n)
	}
	for _, path := range []string{"", filepath.Join(t.TempDir(), "alloc.wal")} {
		db, err := Open(Options{Path: path})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 64; i++ { // past the first frame-buffer and index growth
			db.AppendAccess(sampleAccess(i))
		}
		if n := testing.AllocsPerRun(2000, func() { db.AppendAccess(sampleAccess(3)) }); n != 0 {
			t.Errorf("path %q: AppendAccess allocates %v times per record, want 0", path, n)
		}
		if path == "" && db.frame != nil {
			t.Error("a memory database encoded a WAL frame it has no log for")
		}
		db.Close()
	}
}

// walWith returns a WAL of n sample records followed by tail.
func walWith(n int, tail ...byte) []byte {
	wal := append([]byte(nil), magic...)
	for i := 0; i < n; i++ {
		rec := sampleAccess(i)
		rec.Seq = uint64(i + 1)
		wal = appendAccessFrame(wal, &rec)
	}
	return append(wal, tail...)
}

// TestReplayCorruptLengthIsTornTail: a trailing frame header whose length
// field is garbage — wrapping uint32 arithmetic, asking for gigabytes, or
// merely running past the end of the file — is the torn tail Open
// promises to cut away, not a panic or an allocation of that size.
func TestReplayCorruptLengthIsTornTail(t *testing.T) {
	past := make([]byte, frameHeader+20)
	past[0] = byte(frameAccess)
	binary.LittleEndian.PutUint32(past[1:], 4096)
	cases := map[string][]byte{
		"wrapping":  {0x01, 0xFE, 0xFF, 0xFF, 0xFF},
		"wrapping4": {0x01, 0xFC, 0xFF, 0xFF, 0xFF},
		"huge":      {0x01, 0xFF, 0xFF, 0xFF, 0x7F},
		"past EOF":  past,
	}
	for name, tail := range cases {
		t.Run(name, func(t *testing.T) {
			intact := walWith(5)
			path := filepath.Join(t.TempDir(), "torn.wal")
			if err := os.WriteFile(path, append(intact, tail...), 0o644); err != nil {
				t.Fatal(err)
			}
			db, err := Open(Options{Path: path})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if db.Len() != 5 {
				t.Errorf("Len = %d, want the 5 intact records", db.Len())
			}
			if info, err := os.Stat(path); err != nil || info.Size() != int64(len(intact)) {
				t.Errorf("file is %d bytes (err %v), want it truncated to the intact %d", info.Size(), err, len(intact))
			}
			if _, err := db.AppendAccess(sampleAccess(5)); err != nil {
				t.Fatalf("append after recovery: %v", err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db, err = Open(Options{Path: path})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if db.Len() != 6 {
				t.Errorf("after recovery and one append Len = %d, want 6", db.Len())
			}
		})
	}
}

// TestOpenRefusesUnknownFrameType: a checksum-valid frame of a type this
// build does not know is a newer writer's record, not a torn tail. Open
// used to truncate the log in front of it, destroying every record behind
// it; it must fail with ErrFrameType and leave the file byte-identical. A
// tail of zeros — what a crash leaves in an extended file — is still torn.
func TestOpenRefusesUnknownFrameType(t *testing.T) {
	unknown := sealFrame([]byte{9, 0, 0, 0, 0, 'n', 'e', 'w'}, 0)
	rec := sampleAccess(5)
	rec.Seq = 6
	wal := appendAccessFrame(walWith(5, unknown...), &rec)
	path := filepath.Join(t.TempDir(), "newer.wal")
	if err := os.WriteFile(path, wal, 0o644); err != nil {
		t.Fatal(err)
	}
	if db, err := Open(Options{Path: path}); !errors.Is(err, ErrFrameType) {
		if err == nil {
			db.Close()
		}
		t.Errorf("Open = %v, want ErrFrameType", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, wal) {
		t.Errorf("Open changed the log: %d bytes (err %v), want the original %d", len(got), err, len(wal))
	}

	intact := walWith(5)
	if err := os.WriteFile(path, append(intact, make([]byte, 64)...), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Open(Options{Path: path})
	if err != nil {
		t.Fatalf("Open over a zero-filled tail: %v", err)
	}
	defer db.Close()
	if info, err := os.Stat(path); db.Len() != 5 || err != nil || info.Size() != int64(len(intact)) {
		t.Errorf("zero tail: Len %d, size %d (err %v); want 5 records and %d bytes", db.Len(), info.Size(), err, len(intact))
	}
}

// TestInvalidRecordsRefused: an access record with a NaN or infinite Time
// or Throughput, or a negative byte count, is refused with ErrInvalidRecord
// wherever records enter the database. AppendAccess stores nothing and
// spends no sequence number on it; Bulkload refuses the export; and a WAL
// frame holding one fails Open, as an unknown frame type does, leaving the
// log as it found it. One such record used to poison every fit over a
// window that held it.
func TestInvalidRecordsRefused(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*AccessRecord)
	}{
		{"time NaN", func(r *AccessRecord) { r.Time = math.NaN() }},
		{"time +Inf", func(r *AccessRecord) { r.Time = math.Inf(1) }},
		{"time -Inf", func(r *AccessRecord) { r.Time = math.Inf(-1) }},
		{"throughput NaN", func(r *AccessRecord) { r.Throughput = math.NaN() }},
		{"throughput +Inf", func(r *AccessRecord) { r.Throughput = math.Inf(1) }},
		{"throughput -Inf", func(r *AccessRecord) { r.Throughput = math.Inf(-1) }},
		{"negative bytes read", func(r *AccessRecord) { r.BytesRead = -1 }},
		{"negative bytes written", func(r *AccessRecord) { r.BytesWritten = -1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := sampleAccess(5)
			tc.edit(&bad)
			if err := bad.Validate(); !errors.Is(err, ErrInvalidRecord) {
				t.Fatalf("Validate = %v, want ErrInvalidRecord", err)
			}

			db := memDB(t)
			if _, err := db.AppendAccess(sampleAccess(0)); err != nil {
				t.Fatal(err)
			}
			if _, err := db.AppendAccess(bad); !errors.Is(err, ErrInvalidRecord) {
				t.Errorf("AppendAccess = %v, want ErrInvalidRecord", err)
			}
			if db.Len() != 1 || db.Watermark() != 1 || len(db.RecentByDevice(bad.Device, 10)) != 0 {
				t.Errorf("a refused append left Len %d, watermark %d", db.Len(), db.Watermark())
			}

			bad.Seq = 1
			if err := memDB(t).Bulkload([]AccessRecord{bad}, 1, 1); !errors.Is(err, ErrInvalidRecord) {
				t.Errorf("Bulkload = %v, want ErrInvalidRecord", err)
			}

			bad.Seq = 6
			wal := appendAccessFrame(walWith(5), &bad)
			path := filepath.Join(t.TempDir(), "invalid.wal")
			if err := os.WriteFile(path, wal, 0o644); err != nil {
				t.Fatal(err)
			}
			if db, err := Open(Options{Path: path}); !errors.Is(err, ErrInvalidRecord) {
				if err == nil {
					db.Close()
				}
				t.Errorf("Open = %v, want ErrInvalidRecord", err)
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, wal) {
				t.Errorf("Open changed the log: %d bytes (err %v), want the original %d", len(got), err, len(wal))
			}
		})
	}
}

// FuzzRecordDecode feeds arbitrary bytes to the one record decoder through
// both of its trust boundaries: as a run of wire records, and as a
// write-ahead log handed to replay. Neither may panic or size anything by
// a length it read; a record that decodes re-encodes to the bytes it came
// from; and replay never reports more valid bytes than it was given, loads
// only frames that re-encode to themselves, and fails only with ErrRecord,
// ErrFrameType, ErrInvalidRecord or the bad-magic error.
func FuzzRecordDecode(f *testing.F) {
	f.Add(walWith(3))
	f.Add(AppendAccessRecord(AppendAccessRecord(nil, &goldenAccess), &goldenAccess))
	f.Add(AppendMovementRecord(nil, &goldenMovement))
	f.Fuzz(func(t *testing.T, data []byte) {
		// The wire path: records back to back in one buffer. Whatever
		// prefix decodes re-encodes to the bytes it came from.
		var dec Decoder
		dec.Reset(data)
		var again []byte
		for dec.Done() != nil {
			rec := dec.Access()
			if dec.bad {
				break
			}
			again = AppendAccessRecord(again, &rec)
		}
		if !bytes.HasPrefix(data, again) {
			t.Fatalf("access records re-encode to %x, came from %x", again, data)
		}
		dec.Reset(data)
		again = again[:0]
		for dec.Done() != nil {
			m := dec.Movement()
			if dec.bad {
				break
			}
			again = AppendMovementRecord(again, &m)
		}
		if !bytes.HasPrefix(data, again) {
			t.Fatalf("movement records re-encode to %x, came from %x", again, data)
		}

		db, err := Open(Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		valid, err := db.replay(bytes.NewReader(data), int64(len(data)), math.MaxUint64)
		if err != nil && !errors.Is(err, ErrRecord) && !errors.Is(err, ErrFrameType) && !errors.Is(err, ErrInvalidRecord) && !errors.Is(err, errBadMagic) {
			t.Fatalf("replay failed with an untyped error: %v", err)
		}
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("replay reports %d valid bytes of %d", valid, len(data))
		}
		if valid == 0 {
			return
		}
		// What replay accepted is a log: rebuilding it from the loaded
		// records, in frame order — each frame's type byte says which kind
		// comes next — gives back the accepted prefix.
		rebuilt := append([]byte(nil), magic...)
		accesses, movements := db.All(), db.Movements()
		for int64(len(rebuilt)) < valid {
			switch typ := recordType(data[len(rebuilt)]); {
			case typ == frameAccess && len(accesses) > 0:
				rebuilt = appendAccessFrame(rebuilt, &accesses[0])
				accesses = accesses[1:]
			case typ == frameMovement && len(movements) > 0:
				rebuilt = appendMovementFrame(rebuilt, &movements[0])
				movements = movements[1:]
			default:
				t.Fatalf("frame at offset %d matches no loaded record", len(rebuilt))
			}
		}
		if n := len(accesses) + len(movements); n > 0 {
			t.Fatalf("%d loaded records lie past the %d bytes accepted", n, valid)
		}
		if !bytes.Equal(rebuilt, data[:valid]) {
			t.Fatalf("loaded records re-encode to a different log than the %d bytes accepted", valid)
		}
	})
}
