// This file generates the committed corpus of FuzzCheckpointRead
// (internal/checkpoint/testdata/fuzz/FuzzCheckpointRead): two real
// snapshots and the damaged forms of each. It lives under testdata/ so the
// go command ignores it. To run it, from the repository root:
//
//	cp testdata/fuzz_checkpoint_read/generate_test.go internal/checkpoint/zz_generate_test.go
//	CORPUS_OUT=/tmp/corpus go test -run TestGenerateCorpus -v ./internal/checkpoint/
//	rm internal/checkpoint/zz_generate_test.go
//
// It writes the 30 cases into CORPUS_OUT under their committed names and
// compares each with the committed case of the same name: both must be
// accepted, or both refused with the same message once every number in
// it is masked. Bytes cannot match, because the snapshots' train log
// holds wall-clock durations. After a format change, point CORPUS_OUT at
// the committed corpus directory to rewrite it, then check the messages
// by hand.
//
// The snapshots are the facade's after 5 runs under the root package's
// ckptOptions (seed 11, Parallelism 1, 4 epochs, a 300-record window,
// cooldown 2, 2 bootstrap runs) with model 11 and a file-backed replay
// database, so no record is embedded: flat ("shards0", 5 845 bytes when
// the corpus was generated) and with WithShards(2) ("shards2", 5 944).
// Each is written as
//
//   - valid: as taken;
//   - cut_in_magic, cut_after_magic, cut_in_header, cut_after_header: its
//     first 4, 8, 10 and 13 bytes (the magic is 8, the frame header 5);
//   - cut_in_payload: its first half; cut_before_crc and cut_in_crc: all
//     but the last 4 and 2 bytes;
//   - flipped_crc: the last byte's low bit flipped;
//   - magic_gckp0004, 0005, 0006: the three previous magics;
//   - weights_short and weights_long: the weight section one value shorter
//     and five zero values longer, re-framed with a fresh length and CRC.
//
// Two cases are fixed bytes: length_4gib, a header declaring a 4 GiB
// payload, and unknown_frame_type, a frame of type 0x02.
package checkpoint_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"geomancy"
	"geomancy/internal/checkpoint"
)

// The frame layout of a GCKP0007 file: magic, type byte, payload length,
// payload (five length-prefixed sections, the weights second), CRC.
const (
	magicLen  = 8
	headerLen = magicLen + 1 + 4
	sections  = 5
)

func TestGenerateCorpus(t *testing.T) {
	out := os.Getenv("CORPUS_OUT")
	if out == "" {
		t.Skip("CORPUS_OUT names no directory")
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"length_4gib":        []byte("GCKP0007\x01\xff\xff\xff\xff"),
		"unknown_frame_type": []byte("GCKP0007\x02\x00\x00\x00\x00\x00\x00\x00\x00"),
	}
	for _, shards := range []int{0, 2} {
		valid := snapshot(t, shards)
		n := len(valid)
		t.Logf("shards%d: a %d-byte snapshot", shards, n)
		damaged := map[string][]byte{
			"valid":            valid,
			"cut_in_magic":     valid[:4],
			"cut_after_magic":  valid[:magicLen],
			"cut_in_header":    valid[:10],
			"cut_after_header": valid[:headerLen],
			"cut_in_payload":   valid[:n/2],
			"cut_before_crc":   valid[:n-4],
			"cut_in_crc":       valid[:n-2],
			"flipped_crc":      append(bytes.Clone(valid[:n-1]), valid[n-1]^1),
			"weights_short":    reweigh(t, valid, func(w []byte) []byte { return w[:len(w)-8] }),
			"weights_long":     reweigh(t, valid, func(w []byte) []byte { return append(bytes.Clone(w), make([]byte, 5*8)...) }),
		}
		for _, v := range []string{"4", "5", "6"} {
			b := bytes.Clone(valid)
			b[magicLen-1] = v[0]
			damaged["magic_gckp000"+v] = b
		}
		for name, b := range damaged {
			cases[fmt.Sprintf("%s_shards%d", name, shards)] = b
		}
	}
	for _, name := range slices.Sorted(maps.Keys(cases)) {
		b := cases[name]
		file := fmt.Appendf(nil, "go test fuzz v1\n[]byte(%q)\n", b)
		if err := os.WriteFile(filepath.Join(out, name), file, 0o644); err != nil {
			t.Fatal(err)
		}
		committed, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzCheckpointRead", name))
		if err != nil {
			t.Errorf("%s: no committed case to compare with: %v", name, err)
			continue
		}
		if got, want := outcome(b), outcome(corpusBytes(t, name, committed)); got != want {
			t.Errorf("%s: regenerated case reads %q, the committed one %q", name, got, want)
		} else {
			t.Logf("%-28s %s", name, got)
		}
	}
	t.Logf("wrote %d cases to %s", len(cases), out)
}

// snapshot returns the checkpoint file of the facade after 5 runs under
// the options above, sharded when shards > 0.
func snapshot(t *testing.T, shards int) []byte {
	dir := t.TempDir()
	opts := []geomancy.Option{geomancy.WithSeed(11), geomancy.WithParallelism(1),
		geomancy.WithEpochs(4), geomancy.WithTrainingWindow(300), geomancy.WithCooldown(2),
		geomancy.WithBootstrapRuns(2), geomancy.WithModel(11),
		geomancy.WithReplayDB(filepath.Join(dir, "replay.wal"))}
	if shards > 0 {
		opts = append(opts, geomancy.WithShards(shards))
	}
	sys, err := geomancy.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.RunN(5); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "snap.ckpt")
	if err := sys.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// reweigh returns file with its weight section replaced by what edit makes
// of it, the section's and the payload's lengths and the CRC rewritten.
func reweigh(t *testing.T, file []byte, edit func([]byte) []byte) []byte {
	payload := file[headerLen : len(file)-4]
	var secs [sections][]byte
	rest := payload
	for i := range secs {
		if len(rest) < 4 {
			t.Fatalf("the payload ends before section %d", i)
		}
		n := binary.LittleEndian.Uint32(rest)
		secs[i], rest = rest[4:4+n], rest[4+n:]
	}
	secs[1] = edit(secs[1])
	var p []byte
	for _, s := range secs {
		p = binary.LittleEndian.AppendUint32(p, uint32(len(s)))
		p = append(p, s...)
	}
	out := append(bytes.Clone(file[:magicLen+1]), binary.LittleEndian.AppendUint32(nil, uint32(len(p)))...)
	out = append(out, p...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(p))
}

// corpusBytes decodes one committed corpus file: a version line, then one
// []byte value.
func corpusBytes(t *testing.T, name string, file []byte) []byte {
	lines := strings.Split(string(file), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[1], "[]byte(") {
		t.Fatalf("%s: not a []byte corpus file", name)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return []byte(s)
}

var number = regexp.MustCompile(`[0-9]+`)

// outcome is what Read makes of b: "accepted", or the refusal's message
// with every number masked.
func outcome(b []byte) string {
	if _, err := checkpoint.Read(bytes.NewReader(b)); err != nil {
		return number.ReplaceAllString(err.Error(), "N")
	}
	return "accepted"
}
