package storagesim

import (
	"errors"
	"reflect"
	"testing"
)

// A snapshot is input from outside the program: one whose accounting does
// not hold — a device or file listed twice, a negative size or used-bytes
// count, used bytes that are not the sizes of the device's files — is
// refused with ErrInvalidState before anything is assigned, so the
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
