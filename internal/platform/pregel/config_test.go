package pregel

import (
	"testing"

	"rheem/internal/platform/driverutil"
)

func TestConfigNoOverheadSentinel(t *testing.T) {
	def := Config{}.withDefaults()
	if def.ContextStartupMs != 60 || def.SuperstepMs != 1.5 {
		t.Fatalf("zero config got defaults %+v", def)
	}
	// The negative sentinel means a genuinely free operation and must not be
	// silently overwritten with the default (the old `== 0` footgun).
	free := Config{ContextStartupMs: driverutil.NoOverheadMs, SuperstepMs: driverutil.NoOverheadMs}.withDefaults()
	if free.ContextStartupMs != 0 || free.SuperstepMs != 0 {
		t.Fatalf("sentinel config not honored: %+v", free)
	}
	set := Config{ContextStartupMs: 9, SuperstepMs: 0.5}.withDefaults()
	if set.ContextStartupMs != 9 || set.SuperstepMs != 0.5 {
		t.Fatalf("explicit config rewritten: %+v", set)
	}
}
