package core

import (
	"errors"
	"strings"
	"testing"

	"geomancy/internal/policy"
	"geomancy/internal/storagesim"
)

// BuildPolicy is the one path from (name, shard count) to a policy: every
// catalogue name builds unsharded, exactly the learned ones come with an
// engine bridge, only the default policy shards, and an unknown name is
// policy.ErrUnknown.
func TestBuildPolicyCoversCatalogue(t *testing.T) {
	db := seedDB(t, 50)
	for _, name := range append(policy.Names(), "") {
		learned := name == "" || strings.HasSuffix(name, "geomancy")
		p, model, err := BuildPolicy(db, storagesim.NewBluesky(1), name, 0, quickCfg())
		if err != nil || p == nil {
			t.Fatalf("BuildPolicy(%q) = %v, %v", name, p, err)
		}
		if (model != nil) != learned {
			t.Errorf("policy %q: engine bridge present = %v, learned = %v", name, model != nil, learned)
		}
		p, model, err = BuildPolicy(db, storagesim.NewBluesky(1), name, 2, quickCfg())
		if shardable := name == "" || name == policy.DefaultName; !shardable {
			if err == nil {
				t.Errorf("policy %q built at 2 shards; only %q shards", name, policy.DefaultName)
			}
			continue
		}
		if err != nil {
			t.Fatalf("BuildPolicy(%q, 2 shards): %v", name, err)
		}
		if s, ok := p.(*Sharded); !ok || len(s.global.units) != 2 || model != s.Model() {
			t.Errorf("BuildPolicy(%q, 2 shards) = %T with bridge %p, want the coordinator and its Model()", name, p, model)
		}
	}
	for _, name := range []string{"nosuch", "tiered-geomancy"} {
		if _, _, err := BuildPolicy(db, storagesim.NewBluesky(1), name, 0, quickCfg()); !errors.Is(err, policy.ErrUnknown) {
			t.Errorf("unknown policy %q: err = %v, want policy.ErrUnknown", name, err)
		}
	}
}
