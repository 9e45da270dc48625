package geomancy

import (
	"bytes"
	"encoding/gob"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"geomancy/internal/checkpoint"
	"geomancy/internal/storagesim"
)

// TestShardedMatchesUnsharded pins the coordinator's degenerate case: a
// 1-shard system routes every decision through the global engine on the
// same RNG stream as the unsharded policy, so the full closed-loop
// trajectory — layouts, stats, movements, telemetry counts — must be
// bit-identical to a plain same-seed system.
func TestShardedMatchesUnsharded(t *testing.T) {
	plain, err := New(ckptOptions(1)...)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if _, err := plain.RunN(10); err != nil {
		t.Fatal(err)
	}
	want := capture(t, plain)

	sharded, err := New(ckptOptions(1, WithShards(1))...)
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	if got := sharded.Shards(); got != 1 {
		t.Fatalf("Shards() = %d, want 1", got)
	}
	if _, err := sharded.RunN(10); err != nil {
		t.Fatal(err)
	}
	assertSameTrajectory(t, capture(t, sharded), want, "1-shard vs unsharded")
}

// TestShardedResumeEquivalence extends the resume invariant to the
// sharded plane: a sharded run checkpointed at run N and restored — with
// the global engine's model and every shard engine's RNG stream and
// device-group accounting rebuilt from the snapshot — must produce a bit-identical
// trajectory to the same-seed uninterrupted run, at every partition
// width the Bluesky cluster supports and at Parallelism 1 and 4.
func TestShardedResumeEquivalence(t *testing.T) {
	const checkpointAt, total = 5, 12

	for _, shards := range []int{1, 2, 3} {
		for _, p := range []int{1, 4} {
			t.Run("shards="+strconv.Itoa(shards)+"/parallelism="+strconv.Itoa(p), func(t *testing.T) {
				opts := ckptOptions(p, WithShards(shards))

				ref, err := New(opts...)
				if err != nil {
					t.Fatal(err)
				}
				defer ref.Close()
				if _, err := ref.RunN(total); err != nil {
					t.Fatal(err)
				}
				want := capture(t, ref)

				first, err := New(opts...)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := first.RunN(checkpointAt); err != nil {
					t.Fatal(err)
				}
				ckpt := filepath.Join(t.TempDir(), "snap.ckpt")
				if err := first.Checkpoint(ckpt); err != nil {
					t.Fatal(err)
				}
				if err := first.Close(); err != nil {
					t.Fatal(err)
				}

				resumed, err := Restore(ckpt, opts...)
				if err != nil {
					t.Fatal(err)
				}
				defer resumed.Close()
				if _, err := resumed.RunN(total - checkpointAt); err != nil {
					t.Fatal(err)
				}
				assertSameTrajectory(t, capture(t, resumed), want, "sharded resume")
			})
		}
	}
}

// A snapshot only restores under its own partition: shard RNG streams and
// shard engines are meaningless under a different sharding, so a
// different WithShards, an unsharded restore and the same devices in
// another order (other device groups at the same width) are rejected.
func TestShardedRestoreRejectsPartitionMismatch(t *testing.T) {
	sys, err := New(ckptOptions(1, WithShards(2))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunN(6); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "snap.ckpt")
	if err := sys.Checkpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := Restore(ckpt, ckptOptions(1, WithShards(3))...); err == nil {
		t.Error("restoring a 2-shard snapshot into a 3-shard system succeeded")
	} else if !strings.Contains(err.Error(), "shards") {
		t.Errorf("mismatch error does not mention shards: %v", err)
	}
	if _, err := Restore(ckpt, ckptOptions(1)...); err == nil {
		t.Error("restoring a 2-shard snapshot into an unsharded system succeeded")
	}
	profiles := storagesim.BlueskyProfiles()
	slices.Reverse(profiles)
	if _, err := Restore(ckpt, ckptOptions(1, WithShards(2), WithDevices(profiles))...); err == nil {
		t.Error("restoring a snapshot over the same devices in another order succeeded")
	}
}

// WithShards drives the sharded Geomancy policy; combining it with a
// baseline WithPolicy has no meaning and must fail construction.
func TestShardedRejectsBaselinePolicy(t *testing.T) {
	if _, err := New(WithShards(2), WithPolicy("lru")); err == nil {
		t.Fatal("New(WithShards, WithPolicy(lru)) succeeded")
	}
}

// Sharded state rides the policy blob alone, and the model is serialized
// once, in the snapshot's engine half: a shard unit carries only what its
// engine owns — its RNG stream and pruning bookkeeping, none at one shard,
// where unit 0's engine IS the global engine — so the blob stays a few
// hundred bytes at any width.
func TestShardedSnapshotCarriesTheModelOnce(t *testing.T) {
	for _, shards := range []int{1, 2, 3} {
		sys, err := New(ckptOptions(1, WithShards(shards))...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.RunN(5); err != nil {
			t.Fatal(err)
		}
		ckpt := filepath.Join(t.TempDir(), "snap.ckpt")
		if err := sys.Checkpoint(ckpt); err != nil {
			t.Fatal(err)
		}
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
		snap, err := checkpoint.Load(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		if !snap.Engine.Trained || snap.Engine.Net.WeightsLen() == 0 {
			t.Fatalf("shards=%d: snapshot's engine half is missing the trained global engine", shards)
		}
		if n := len(snap.Policy); n >= 4096 {
			t.Errorf("shards=%d: policy blob is %d bytes, want under 4 KB", shards, n)
		}
		// The coordinator's wire form, mirrored field for field, plus the
		// network field a unit carrying a copy of the model would fill and
		// the device group older coordinators wrote beside it.
		var blob struct {
			Shards int
			Units  []struct {
				Engine *struct {
					RNG           uint64
					DecisionCount uint64
					LastWatermark uint64
					Net           []byte
				}
				Shard *struct {
					Index   int
					Devices []string
				}
			}
		}
		if err := gob.NewDecoder(bytes.NewReader(snap.Policy)).Decode(&blob); err != nil {
			t.Fatalf("shards=%d: decoding policy blob: %v", shards, err)
		}
		if blob.Shards != shards || len(blob.Units) != shards {
			t.Fatalf("blob describes %d shards in %d units, want %d", blob.Shards, len(blob.Units), shards)
		}
		for i, u := range blob.Units {
			if u.Shard != nil {
				t.Errorf("shards=%d unit %d: carries its device group %+v", shards, i, *u.Shard)
			}
			if has, want := u.Engine != nil, shards > 1; has != want {
				t.Fatalf("shards=%d unit %d: carries an engine state = %v, want %v", shards, i, has, want)
			}
			if u.Engine != nil && len(u.Engine.Net) > 0 {
				t.Errorf("shards=%d unit %d: carries a %d-byte network", shards, i, len(u.Engine.Net))
			}
		}
	}
}
