// Package checkpoint is Geomancy's snapshot format and on-disk store: the
// whole closed loop — RNG streams, trained model and optimizer, fitted
// normalization, simulated cluster, workload cursor, replay-log watermark,
// and every loop counter — serialized as one versioned, CRC-framed blob,
// so an interrupted run restores and continues bit-for-bit.
//
// A checkpoint file is the 8-byte magic "GCKP0007" (format version in the
// magic, like the replay WAL's "GRDB0001") followed by one frame: a type
// byte, a little-endian uint32 payload length, the payload, and a CRC-32
// (IEEE) of the payload. Truncated or bit-flipped files fail with
// ErrCorrupt, never with a partial state; Store.Latest then falls back to
// the previous snapshot.
//
// The payload is five sections in a fixed order, each a little-endian
// uint32 byte length followed by that many bytes:
//
//  1. head: the gob-encoded Snapshot with the four sections below left
//     empty — counters, RNG registers, fitted scalers, the model's
//     architecture (nn.State without its weights), cluster (its file table
//     carrying each file's heat), gap model, workload and policy blobs,
//     replay watermark and any embedded access records;
//  2. weights: the engine model's parameters in nn Params() order, each a
//     little-endian float64 (nn.State.WriteWeights); empty without an
//     engine;
//  3. stats: Snapshot.Stats, one 64-byte record a run;
//  4. train log: Loop.TrainLog, one 65-byte record a report;
//  5. movements: Loop.Movements, one 32-byte record a layout change.
//
// A record's fields are little-endian in declaration order (sections.go):
// an integer as 8 bytes, a float64 as its IEEE bits, a bool as one byte.
// These are the parts that grow with the model and the run. A write
// encodes the head first, into a buffer of a few KB, because the head's
// length precedes it; every other length follows from the model and the
// record counts, so the frame's header goes out next and the weights and
// records stream after it through that same buffer, each value encoded
// once. What a write allocates does not grow with the run's history. A
// reader checks every section's length against the payload, and the
// model's architecture against its weight block, before it sizes
// anything by either. The weight block stays where it was read, in the
// payload, until the restored network decodes it into its own matrices.
//
// Saves are atomic: Save writes to a temporary file in the destination
// directory, fsyncs it, renames it over the target, and fsyncs the
// directory, so a crash mid-write leaves either the old snapshot or the
// new one, never a torn file.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"geomancy/internal/core"
	"geomancy/internal/replaydb"
	"geomancy/internal/storagesim"
	"geomancy/internal/workload"
)

// magic identifies a checkpoint file and its format version. In GCKP0006
// the model's weights and the run history left the gob payload for
// sections of their own; in GCKP0007 each file's heat moved from the loop
// state into the cluster's file table, where a GCKP0006 file has none. No
// reader is kept for older versions: their files fail with ErrCorrupt.
var magic = []byte("GCKP0007")

// frameSnapshot is the type byte of a Snapshot frame. Future format
// extensions get new type bytes; readers reject types they do not know.
const frameSnapshot = 0x01

// frameHeader is the length of the magic, the type byte and the payload
// length; the payload starts after it.
const frameHeader = 8 + 1 + 4

// Sentinel errors. Match with errors.Is.
var (
	// ErrCorrupt reports a checkpoint that failed validation: bad magic,
	// truncated frame, CRC mismatch, or an undecodable payload.
	ErrCorrupt = errors.New("checkpoint: corrupt snapshot")
	// ErrNoCheckpoint reports a store (or path) with no usable snapshot.
	ErrNoCheckpoint = errors.New("checkpoint: no snapshot found")
)

// Snapshot is the complete serializable state of a running system. Static
// configuration (device profiles, working set, engine config) is NOT
// recorded: a restored run rebuilds the system from the same options and
// then overwrites its dynamic state from the snapshot.
type Snapshot struct {
	// Seed echoes the configuration seed, as a cheap restore-time guard
	// against resuming a snapshot under a different configuration.
	Seed int64
	// Runs is the number of completed Run calls when the snapshot was
	// taken.
	Runs int

	// Facade counters.
	TpSum   float64
	TpCount int64
	Stats   []workload.RunStats

	Engine  core.EngineState
	Loop    core.LoopState
	Cluster storagesim.ClusterState

	// WorkloadName names the scenario the snapshot was taken under
	// ("belle" for the classic runner); restore refuses a snapshot whose
	// scenario disagrees with the configured one. Workload is the
	// scenario's opaque MarshalState blob — the RNG register, run
	// counter, and generator registers.
	WorkloadName string
	Workload     []byte

	// PolicyName names the placement policy the snapshot was taken under
	// (a policy.Policy Name, e.g. "Geomancy dynamic" or "lru"); restore
	// refuses a snapshot whose policy disagrees with the configured one.
	// Policy is the policy's opaque MarshalState blob — one-shot flags,
	// RNG registers, online-update counters, and for the sharded
	// coordinator its partition width and every shard unit's state (a
	// blob of a different width is rejected by the policy itself).
	PolicyName string
	Policy     []byte

	// ReplayWatermark is the highest replay-log sequence number covered
	// by this snapshot. A file-backed database truncates its WAL to the
	// watermark on restore (the discarded tail regenerates
	// deterministically); a memory database reloads from the embedded
	// records below instead and continues numbering after the watermark.
	ReplayWatermark uint64
	// Accesses are the access records a memory database retained, in
	// sequence order, and AccessCount how many it had appended.
	Accesses    []replaydb.AccessRecord
	AccessCount int
}

// Write serializes snap to w in the framed checkpoint format as it
// encodes it. Only the head is built in memory, because its length comes
// before it; every other section's length is known up front, so the
// weights and records follow the head through the same buffer, a chunk at
// a time, and what a write allocates does not grow with the run's
// history. It returns the first error w returns.
func Write(w io.Writer, snap *Snapshot) error {
	net := &snap.Engine.Net
	weights := net.WeightsLen()
	head := *snap
	head.Stats, head.Engine.Net.Params, head.Engine.Net.Weights = nil, nil, nil
	head.Loop.TrainLog, head.Loop.Movements = nil, nil
	hw := sectionWriter{make([]byte, frameHeader+4, headGuess)}
	if err := gob.NewEncoder(&hw).Encode(&head); err != nil {
		return fmt.Errorf("checkpoint: encoding snapshot: %w", err)
	}
	f := frameWriter{w: w}
	f.b = hw.b
	headLen := len(f.b) - frameHeader - 4
	plen := uint64(4*sectionCount+headLen+weights) + uint64(statsWidth)*uint64(len(snap.Stats)) +
		uint64(trainWidth)*uint64(len(snap.Loop.TrainLog)) + uint64(movementWidth)*uint64(len(snap.Loop.Movements))
	if plen > math.MaxUint32 {
		return fmt.Errorf("checkpoint: snapshot of %d bytes exceeds the frame's 4 GiB", plen)
	}
	copy(f.b, magic)
	f.b[len(magic)] = frameSnapshot
	binary.LittleEndian.PutUint32(f.b[len(magic)+1:], uint32(plen))
	binary.LittleEndian.PutUint32(f.b[frameHeader:], uint32(headLen))
	f.b = binary.LittleEndian.AppendUint32(f.b, uint32(weights))
	// The CRC covers the payload, which starts after the frame's header.
	f.crc = crc32.ChecksumIEEE(f.b[frameHeader:])
	f.send(f.b)
	f.b = f.b[:0]
	net.WriteWeights(&f, f.b) // an error from w stays in f.err
	writeSection(&f, snap.Stats, statsWidth, runStats)
	writeSection(&f, snap.Loop.TrainLog, trainWidth, trainReport)
	writeSection(&f, snap.Loop.Movements, movementWidth, movement)
	f.room(4)
	f.crc = crc32.Update(f.crc, crc32.IEEETable, f.b)
	f.send(binary.LittleEndian.AppendUint32(f.b, f.crc))
	return f.err
}

// headGuess is the capacity of the buffer a write encodes the head into
// and then streams the rest of the file through: it holds a few RNG
// registers, scalers and blobs and gob's type descriptors. The heads of
// the bench's deployed-ingest workload measure 5.5 KB, after 60 runs and
// after 300. A memory-backed replay database's embedded records make a
// longer one, and the buffer then grows to the head's length.
const headGuess = 8 << 10

// sectionWriter appends what gob writes to the buffer.
type sectionWriter struct{ b []byte }

func (w *sectionWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// frameWriter streams a frame's payload to w. Its fields are the buffer
// the head is encoded into and the records are then appended to; flush
// sends what the buffer holds. Every payload byte sent is folded into
// crc, and after the first error from w nothing more is sent.
type frameWriter struct {
	fields
	w   io.Writer
	crc uint32
	err error
}

// Write sends payload bytes encoded elsewhere (the weights) and folds
// them into the CRC.
func (f *frameWriter) Write(p []byte) (int, error) {
	f.crc = crc32.Update(f.crc, crc32.IEEETable, p)
	f.send(p)
	return len(p), f.err
}

// send writes p to w, unless an earlier write failed.
func (f *frameWriter) send(p []byte) {
	if f.err == nil {
		_, f.err = f.w.Write(p)
	}
}

// flush sends the buffered payload bytes and empties the buffer.
func (f *frameWriter) flush() {
	f.Write(f.b)
	f.b = f.b[:0]
}

// room flushes the buffer unless n more bytes fit it.
func (f *frameWriter) room(n int) {
	if len(f.b)+n > cap(f.b) {
		f.flush()
	}
}

// Read parses a framed snapshot, returning ErrCorrupt for anything that
// fails validation. The frame's declared length is not trusted: the
// payload buffer grows as bytes actually arrive, so a header that lies
// costs at most about twice what the reader really holds.
func Read(r io.Reader) (*Snapshot, error) {
	return read(r, -1)
}

// payloadStep is the first buffer of a payload read from a source of
// unknown size; the buffer doubles from there up to the declared length.
const payloadStep = 64 << 10

// read is Read over a source known to hold size bytes in all (size < 0:
// unknown). A known size bounds the declared length up front, so an
// honest file decodes from one buffer of exactly its payload's size.
func read(r io.Reader, size int64) (*Snapshot, error) {
	hdr := make([]byte, len(magic))
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("%w: short magic: %v", ErrCorrupt, err)
	}
	if !bytes.Equal(hdr, magic) {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, hdr)
	}
	var frame [5]byte
	if _, err := io.ReadFull(r, frame[:]); err != nil {
		return nil, fmt.Errorf("%w: short frame header: %v", ErrCorrupt, err)
	}
	if frame[0] != frameSnapshot {
		return nil, fmt.Errorf("%w: unknown frame type 0x%02x", ErrCorrupt, frame[0])
	}
	plen := int64(binary.LittleEndian.Uint32(frame[1:]))
	need := plen + 4 // payload and its CRC
	first := min(need, payloadStep)
	if size >= 0 {
		if rest := size - int64(len(magic)+len(frame)); need > rest {
			return nil, fmt.Errorf("%w: frame declares %d bytes, %d follow it", ErrCorrupt, need, rest)
		}
		first = need
	}
	payload := make([]byte, first)
	for filled := 0; ; {
		if _, err := io.ReadFull(r, payload[filled:]); err != nil {
			return nil, fmt.Errorf("%w: truncated payload: %v", ErrCorrupt, err)
		}
		filled = len(payload)
		if int64(filled) == need {
			break
		}
		payload = append(payload, make([]byte, min(need-int64(filled), int64(filled)))...)
	}
	body := payload[:plen]
	want := binary.LittleEndian.Uint32(payload[plen:])
	if crc32.ChecksumIEEE(body) != want {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	return decode(body)
}

// decode parses a payload's sections. Every section length is checked
// against the payload before anything is decoded, a fixed-width section's
// against its record width before its records are, and the model's
// architecture against its weight block before either sizes an
// allocation. The snapshot keeps the weight block as a slice of body.
func decode(body []byte) (*Snapshot, error) {
	var secs [sectionCount][]byte
	for i := range secs {
		if len(body) < 4 {
			return nil, fmt.Errorf("%w: payload ends before the %s section", ErrCorrupt, sectionNames[i])
		}
		n := binary.LittleEndian.Uint32(body)
		body = body[4:]
		if uint64(n) > uint64(len(body)) {
			return nil, fmt.Errorf("%w: %s section declares %d bytes, %d follow", ErrCorrupt, sectionNames[i], n, len(body))
		}
		secs[i], body = body[:n:n], body[n:]
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("%w: %d bytes after the last section", ErrCorrupt, len(body))
	}
	head, weights := secs[0], secs[1]
	var snap Snapshot
	if err := gob.NewDecoder(bytes.NewReader(head)).Decode(&snap); err != nil {
		return nil, fmt.Errorf("%w: decoding head: %v", ErrCorrupt, err)
	}
	net := &snap.Engine.Net
	net.Params, net.Weights = nil, nil
	if len(weights) > 0 || net.InSize != 0 || len(net.Layers) > 0 {
		if err := net.SetWeights(weights); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	var err error
	if snap.Stats, err = readSection(sectionNames[2], secs[2], statsWidth, runStats); err != nil {
		return nil, err
	}
	if snap.Loop.TrainLog, err = readSection(sectionNames[3], secs[3], trainWidth, trainReport); err != nil {
		return nil, err
	}
	if snap.Loop.Movements, err = readSection(sectionNames[4], secs[4], movementWidth, movement); err != nil {
		return nil, err
	}
	return &snap, nil
}

// Save writes snap to path atomically: temp file in the same directory,
// fsync, rename over the target, fsync the directory.
func Save(path string, snap *Snapshot) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("checkpoint: creating temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := Write(tmp, snap); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: writing %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: syncing %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("checkpoint: publishing %s: %w", path, err)
	}
	return syncDir(dir)
}

// Load reads the snapshot at path. A missing file is ErrNoCheckpoint; a
// damaged one is ErrCorrupt.
func Load(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNoCheckpoint, path)
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return read(f, info.Size())
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil // directory fsync is best-effort on exotic filesystems
	}
	defer d.Close()
	d.Sync()
	return nil
}

// Store manages numbered snapshots (snap-NNNNNN.ckpt) in a directory,
// keeping the newest keepCount so a corrupt or torn latest snapshot still
// leaves a usable predecessor.
type Store struct {
	dir  string
	next int
}

// keepCount is how many snapshots a Store retains.
const keepCount = 2

// NewStore opens (creating if necessary) a snapshot directory.
func NewStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: creating store: %w", err)
	}
	s := &Store{dir: dir}
	nums, err := s.indexes()
	if err != nil {
		return nil, err
	}
	if len(nums) > 0 {
		s.next = nums[len(nums)-1] + 1
	} else {
		s.next = 1
	}
	return s, nil
}

// Save writes snap as the next numbered snapshot and prunes old ones,
// returning the path written.
func (s *Store) Save(snap *Snapshot) (string, error) {
	path := s.path(s.next)
	if err := Save(path, snap); err != nil {
		return "", err
	}
	s.next++
	s.prune()
	return path, nil
}

// Latest loads the newest readable snapshot, skipping (and reporting via
// the returned path only) corrupt ones. With no usable snapshot it
// returns ErrNoCheckpoint — or ErrCorrupt when snapshots exist but none
// decode, so callers can distinguish "fresh start" from "damaged store".
func (s *Store) Latest() (*Snapshot, string, error) {
	nums, err := s.indexes()
	if err != nil {
		return nil, "", err
	}
	sawCorrupt := false
	for i := len(nums) - 1; i >= 0; i-- {
		path := s.path(nums[i])
		snap, err := Load(path)
		if err == nil {
			return snap, path, nil
		}
		if errors.Is(err, ErrCorrupt) {
			sawCorrupt = true
			continue
		}
		return nil, "", err
	}
	if sawCorrupt {
		return nil, "", fmt.Errorf("%w: every snapshot in %s failed validation", ErrCorrupt, s.dir)
	}
	return nil, "", fmt.Errorf("%w: %s is empty", ErrNoCheckpoint, s.dir)
}

func (s *Store) path(n int) string {
	return filepath.Join(s.dir, fmt.Sprintf("snap-%06d.ckpt", n))
}

// indexes returns the numbered snapshots present, ascending.
func (s *Store) indexes() ([]int, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: reading store: %w", err)
	}
	var nums []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".ckpt") {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".ckpt"))
		if err != nil || n <= 0 {
			continue
		}
		nums = append(nums, n)
	}
	sort.Ints(nums)
	return nums, nil
}

// prune removes all but the newest keepCount snapshots.
func (s *Store) prune() {
	nums, err := s.indexes()
	if err != nil {
		return
	}
	for len(nums) > keepCount {
		os.Remove(s.path(nums[0]))
		nums = nums[1:]
	}
}
