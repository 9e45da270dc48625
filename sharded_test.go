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
// 1-shard system routes every decision through the lone engine on the
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
// the engine's model, cadence and dirty watermark and every shard's RNG
// stream rebuilt from the snapshot — must produce a bit-identical
// trajectory to the same-seed uninterrupted run, at every partition width
// the Bluesky cluster supports and at Parallelism 1 and 4, and with
// candidate pruning on a cadence the checkpoint lands in the middle of.
func TestShardedResumeEquivalence(t *testing.T) {
	const checkpointAt, total = 5, 12

	type run struct {
		name string
		opts []Option
	}
	var runs []run
	for _, shards := range []int{1, 2, 3} {
		for _, p := range []int{1, 4} {
			runs = append(runs, run{"shards=" + strconv.Itoa(shards) + "/parallelism=" + strconv.Itoa(p),
				ckptOptions(p, WithShards(shards))})
		}
	}
	// Three devices a shard: a top-2 shortlist can leave one out, so a
	// cadence restored wrong shows in the layout.
	runs = append(runs, run{"shards=2/parallelism=4/topk=2",
		ckptOptions(4, WithShards(2), WithTopK(2), WithFullRescanEvery(3))})
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			opts := r.opts
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
			if strings.Contains(r.name, "topk") {
				// The cadence the checkpoint carries is mid-window: the next
				// decision is a pruned one, not a rescan.
				snap, err := checkpoint.Load(ckpt)
				if err != nil {
					t.Fatal(err)
				}
				if n := snap.Engine.DecisionCount; n == 0 || n%3 == 0 || snap.Engine.LastWatermark == 0 {
					t.Fatalf("checkpoint at decision %d, watermark %d: want mid-cadence", n, snap.Engine.LastWatermark)
				}
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

// A snapshot only restores under its own partition: shard RNG streams and
// device groups are meaningless under a different sharding, so a
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
// once, in the snapshot's engine half, with the cadence and the dirty
// watermark: the blob carries the partition width and one RNG stream per
// shard — the engine's own at one shard — and nothing else, so it stays a
// few dozen bytes at any width.
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
			t.Fatalf("shards=%d: snapshot's engine half is missing the trained engine", shards)
		}
		if n := len(snap.Policy); n >= 256 {
			t.Errorf("shards=%d: policy blob is %d bytes, want under 256", shards, n)
		}
		// The coordinator's wire form, mirrored field for field, plus the
		// units older coordinators wrote: a shard engine's state each, with
		// its own counters or a copy of the model.
		var blob struct {
			Shards  int
			Streams []uint64
			Units   []struct {
				Engine *struct {
					RNG           uint64
					DecisionCount uint64
					LastWatermark uint64
					Net           []byte
				}
			}
		}
		if err := gob.NewDecoder(bytes.NewReader(snap.Policy)).Decode(&blob); err != nil {
			t.Fatalf("shards=%d: decoding policy blob: %v", shards, err)
		}
		if blob.Shards != shards || len(blob.Streams) != shards {
			t.Fatalf("blob describes %d shards with %d streams, want %d", blob.Shards, len(blob.Streams), shards)
		}
		if len(blob.Units) != 0 {
			t.Errorf("shards=%d: blob carries %d units", shards, len(blob.Units))
		}
		if shards == 1 && blob.Streams[0] != snap.Engine.RNG {
			t.Errorf("the one shard's stream %x is not the engine's %x", blob.Streams[0], snap.Engine.RNG)
		}
	}
}
