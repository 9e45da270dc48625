// Package checkpoint is Geomancy's snapshot format and on-disk store: the
// whole closed loop — RNG streams, trained model and optimizer, fitted
// normalization, simulated cluster, workload cursor, replay-log watermark,
// and every loop counter — serialized as one versioned, CRC-framed blob,
// so an interrupted run restores and continues bit-for-bit.
//
// A checkpoint file is the 8-byte magic "GCKP0005" (format version in the
// magic, like the replay WAL's "GRDB0001") followed by one frame: a type
// byte, a little-endian uint32 payload length, the gob-encoded Snapshot,
// and a CRC-32 (IEEE) of the payload. Truncated or bit-flipped files fail
// with ErrCorrupt, never with a partial state; Store.Latest then falls
// back to the previous snapshot.
//
// Writes are atomic: Save encodes to a temporary file in the destination
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

// magic identifies a checkpoint file and its format version. In GCKP0005
// a sharded coordinator's state rides the policy blob alone and every
// engine is serialized once. No reader is kept for older versions: their
// files fail with ErrCorrupt.
var magic = []byte("GCKP0005")

// frameSnapshot is the type byte of a Snapshot frame. Future format
// extensions get new type bytes; readers reject types they do not know.
const frameSnapshot = 0x01

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
	// sequence order, and AccessCount how many it had appended. Snapshots
	// written before the count was recorded decode it as zero and embed
	// every record, so zero reads as len(Accesses).
	Accesses    []replaydb.AccessRecord
	AccessCount int
}

// Write serializes snap to w in the framed checkpoint format.
func Write(w io.Writer, snap *Snapshot) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(snap); err != nil {
		return fmt.Errorf("checkpoint: encoding snapshot: %w", err)
	}
	if _, err := w.Write(magic); err != nil {
		return err
	}
	var hdr [5]byte
	hdr[0] = frameSnapshot
	binary.LittleEndian.PutUint32(hdr[1:], uint32(payload.Len()))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload.Bytes()))
	_, err := w.Write(crc[:])
	return err
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
	var snap Snapshot
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&snap); err != nil {
		return nil, fmt.Errorf("%w: decoding payload: %v", ErrCorrupt, err)
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
