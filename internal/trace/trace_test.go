package trace

import (
	"bytes"
	"encoding/csv"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func TestThroughputFormula(t *testing.T) {
	r := EOSRecord{RB: 1000, WB: 500, OTS: 100, OTMS: 0, CTS: 101, CTMS: 500}
	// 1500 bytes over 1.5 s = 1000 B/s.
	if got := r.Throughput(); got != 1000 {
		t.Errorf("Throughput = %v, want 1000", got)
	}
	if got := r.Duration(); got != 1.5 {
		t.Errorf("Duration = %v, want 1.5", got)
	}
}

func TestThroughputZeroDuration(t *testing.T) {
	r := EOSRecord{RB: 1000, OTS: 100, CTS: 100}
	if got := r.Throughput(); got != 0 {
		t.Errorf("Throughput with zero duration = %v, want 0", got)
	}
}

func TestFieldsMatchesFieldNames(t *testing.T) {
	r := EOSRecord{}
	fields := r.Fields()
	if len(fields) != len(FieldNames) {
		t.Fatalf("Fields returned %d values, FieldNames has %d", len(fields), len(FieldNames))
	}
	if len(FieldNames)+1 != NumFields {
		t.Errorf("numeric fields (%d) + path should equal NumFields (%d)", len(FieldNames), NumFields)
	}
}

func TestChosenFeatures(t *testing.T) {
	r := EOSRecord{RB: 10, WB: 20, OTS: 100, OTMS: 500, CTS: 101, CTMS: 250, FID: 7, FSID: 3}
	got := r.ChosenFeatures()
	want := []float64{10, 20, 100.5, 101.25, 7, 3}
	if len(got) != len(ChosenFeatureNames) {
		t.Fatalf("ChosenFeatures returned %d values, names list has %d", len(got), len(ChosenFeatureNames))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("feature %s = %v, want %v", ChosenFeatureNames[i], got[i], want[i])
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	cfg := GeneratorConfig{Seed: 42, Records: 100}
	a := NewGenerator(cfg).Generate(100)
	b := NewGenerator(cfg).Generate(100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs between equal-seed generators", i)
		}
	}
	c := NewGenerator(GeneratorConfig{Seed: 43, Records: 100}).Generate(100)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestGeneratorRecordsValid(t *testing.T) {
	recs := NewGenerator(GeneratorConfig{Seed: 7}).Generate(2000)
	var lastOpen int64
	for i := range recs {
		if recs[i].Duration() < 0 {
			t.Fatalf("record %d closes before it opens", i)
		}
		if recs[i].OTS < lastOpen {
			t.Fatalf("record %d opens before record %d (time went backwards)", i, i-1)
		}
		lastOpen = recs[i].OTS
		if recs[i].Throughput() <= 0 {
			t.Fatalf("record %d has non-positive throughput", i)
		}
		if !strings.HasPrefix(recs[i].Path, "/eos/") {
			t.Fatalf("record %d has unexpected path %q", i, recs[i].Path)
		}
	}
}

func TestGeneratorDefaultsApplied(t *testing.T) {
	g := NewGenerator(GeneratorConfig{})
	def := DefaultGeneratorConfig()
	if g.cfg.Devices != def.Devices || g.cfg.Files != def.Files {
		t.Errorf("defaults not applied: %+v", g.cfg)
	}
	if n := len(g.Generate(0)); n != def.Records {
		t.Errorf("Generate(0) produced %d records, want default %d", n, def.Records)
	}
}

// TestCSVRoundTrip parses what WriteCSV wrote with encoding/csv: the
// header names every field plus the path, and every numeric column reads
// back as exactly the float64 the record holds.
func TestCSVRoundTrip(t *testing.T) {
	recs := NewGenerator(GeneratorConfig{Seed: 9}).Generate(50)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(recs)+1 {
		t.Fatalf("%d rows for %d records, want a header and one row each", len(rows), len(recs))
	}
	if want := append(append([]string{}, FieldNames...), "path"); !reflect.DeepEqual(rows[0], want) {
		t.Errorf("header = %v, want %v", rows[0], want)
	}
	for i := range recs {
		row := rows[i+1]
		for j, want := range recs[i].Fields() {
			if got, err := strconv.ParseFloat(row[j], 64); err != nil || got != want {
				t.Fatalf("record %d column %s = %q (err %v), want %v", i, FieldNames[j], row[j], err, want)
			}
		}
		if row[len(row)-1] != recs[i].Path {
			t.Fatalf("record %d path = %q, want %q", i, row[len(row)-1], recs[i].Path)
		}
	}
}

func TestBelleFileSet(t *testing.T) {
	files := BelleFileSet(1)
	if len(files) != BelleFileCount {
		t.Fatalf("got %d files, want %d", len(files), BelleFileCount)
	}
	var sawMin, sawMax bool
	for i, f := range files {
		if f.Size < BelleMinFileSize || f.Size > BelleMaxFileSize {
			t.Errorf("file %d size %d outside paper range", i, f.Size)
		}
		if f.ID != int64(i+1) {
			t.Errorf("file %d has ID %d, want %d", i, f.ID, i+1)
		}
		if f.Size == BelleMinFileSize {
			sawMin = true
		}
		if f.Size == BelleMaxFileSize {
			sawMax = true
		}
	}
	if !sawMin || !sawMax {
		t.Error("file set should pin the paper's 583 KB and 1.1 GB extremes")
	}
	// Deterministic.
	again := BelleFileSet(1)
	for i := range files {
		if files[i] != again[i] {
			t.Fatal("BelleFileSet not deterministic")
		}
	}
}

func TestBelleRunAccessPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	seq := BelleRun(rng, BelleFileCount)

	// Every file appears, in runs of 10..20 successive accesses.
	seen := make(map[int]bool)
	runLen := 1
	checkRun := func(l int) {
		if l < 10 || l > 20 {
			t.Fatalf("run length %d outside 10..20", l)
		}
	}
	for i := 1; i < len(seq); i++ {
		if seq[i].FileIndex == seq[i-1].FileIndex {
			runLen++
		} else {
			checkRun(runLen)
			runLen = 1
		}
		seen[seq[i].FileIndex] = true
	}
	checkRun(runLen)
	seen[seq[0].FileIndex] = true
	if len(seen) != BelleFileCount {
		t.Errorf("run touched %d files, want %d", len(seen), BelleFileCount)
	}

	// Read-heavy: writes well under 20%.
	var writes int
	for _, a := range seq {
		if a.Write {
			writes++
		}
		if a.Fraction <= 0 || a.Fraction > 1 {
			t.Fatalf("fraction %v out of (0,1]", a.Fraction)
		}
	}
	if frac := float64(writes) / float64(len(seq)); frac > 0.2 {
		t.Errorf("write fraction %v too high for a read-heavy workload", frac)
	}
}

func TestBelleRunDefaultCount(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	seq := BelleRun(rng, 0)
	max := 0
	for _, a := range seq {
		if a.FileIndex > max {
			max = a.FileIndex
		}
	}
	if max != BelleFileCount-1 {
		t.Errorf("default run max file index = %d, want %d", max, BelleFileCount-1)
	}
}
