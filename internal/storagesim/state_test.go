package storagesim

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

// A snapshot is input from outside the program: one whose accounting does
// not hold — a device or file listed twice, a negative size, used-bytes or
// access count, a non-finite last-access time, used bytes that are not the
// sizes of the device's files — is refused with ErrInvalidState before anything is assigned, so the
// cluster keeps exactly the state it had.
func TestRestoreStateRejectsBrokenAccounting(t *testing.T) {
	src := NewBluesky(1)
	for _, f := range []struct {
		id     int64
		size   int64
		device string
	}{{1, 1000, "pic"}, {2, 2000, "tmp"}, {3, 500, "pic"}} {
		if err := src.PlaceFile(f.id, "/f", f.size, f.device); err != nil {
			t.Fatal(err)
		}
	}
	device := func(st *ClusterState, name string) *DeviceState {
		for i := range st.Devices {
			if st.Devices[i].Name == name {
				return &st.Devices[i]
			}
		}
		t.Fatalf("snapshot has no device %q", name)
		return nil
	}

	for _, c := range []struct {
		name string
		edit func(*ClusterState)
	}{
		{"device listed twice", func(st *ClusterState) { *device(st, "tmp") = *device(st, "pic") }},
		{"negative used", func(st *ClusterState) { device(st, "pic").Used = -5000 }},
		{"file listed twice", func(st *ClusterState) {
			st.Files = append(st.Files, FileState{ID: 1, Path: "/f", Size: 1000, Device: "tmp"})
			device(st, "tmp").Used += 1000
		}},
		{"negative file size", func(st *ClusterState) {
			st.Files = append(st.Files, FileState{ID: 9, Path: "/g", Size: -100, Device: "pic"})
			device(st, "pic").Used -= 100
		}},
		{"used is not its files' sizes", func(st *ClusterState) { device(st, "pic").Used++ }},
		{"negative access count", func(st *ClusterState) { st.Files[1].Accesses = -1 }},
		{"NaN last access", func(st *ClusterState) { st.Files[2].LastAccess = math.NaN() }},
		{"infinite last access", func(st *ClusterState) { st.Files[0].LastAccess = math.Inf(1) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			st := src.State()
			c.edit(&st)
			dst := NewBluesky(2)
			if err := dst.SetReadOnly("tmp", true); err != nil {
				t.Fatal(err)
			}
			before := dst.State()
			err := dst.RestoreState(st)
			if !errors.Is(err, ErrInvalidState) {
				t.Fatalf("RestoreState = %v, want ErrInvalidState", err)
			}
			if after := dst.State(); !reflect.DeepEqual(after, before) {
				t.Error("refused restore changed the cluster")
			}
		})
	}

	// The unedited snapshot restores.
	dst := NewBluesky(2)
	if err := dst.RestoreState(src.State()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dst.State(), src.State()) {
		t.Error("restored cluster differs from its snapshot")
	}
}

// A file's heat — the end time of its last access and its access count —
// is set by Access alone: Move and a re-place keep it, and it survives
// State and RestoreState.
func TestFileHeatSurvivesMoveAndRestore(t *testing.T) {
	c := NewBluesky(1)
	for _, id := range []int64{1, 2} {
		if err := c.PlaceFile(id, "/f", 1000, "pic"); err != nil {
			t.Fatal(err)
		}
	}
	var last AccessResult
	for i := 0; i < 3; i++ {
		var err error
		if last, err = c.Access(1, 500, 0); err != nil {
			t.Fatal(err)
		}
	}
	check := func(step string, c *Cluster, id int64, at float64, n int64) {
		t.Helper()
		f, err := c.File(id)
		if err != nil {
			t.Fatal(err)
		}
		if f.LastAccess != at || f.Accesses != n {
			t.Errorf("%s: file %d last accessed at %v, %d accesses; want %v, %d", step, id, f.LastAccess, f.Accesses, at, n)
		}
	}
	check("after three accesses", c, 1, last.End, 3)
	check("never accessed", c, 2, 0, 0)
	if _, err := c.Move(1, "tmp"); err != nil {
		t.Fatal(err)
	}
	check("after a move", c, 1, last.End, 3)
	if err := c.PlaceFile(1, "/f", 1000, "people"); err != nil {
		t.Fatal(err)
	}
	check("after a re-place", c, 1, last.End, 3)
	dst := NewBluesky(2)
	if err := dst.RestoreState(c.State()); err != nil {
		t.Fatal(err)
	}
	check("after a restore", dst, 1, last.End, 3)
	check("after a restore", dst, 2, 0, 0)
}
