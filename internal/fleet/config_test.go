package fleet

import (
	"testing"

	"lightpath/internal/unit"
)

// TestConfigValidateTable exercises validate directly — not through
// Run, whose withDefaults pass papers over zero values — with one
// case per guard clause, plus the valid baseline.
func TestConfigValidateTable(t *testing.T) {
	valid := Config{}.withDefaults()
	if err := valid.validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero wafers", func(c *Config) { c.Wafers = 0 }},
		{"single wafer", func(c *Config) { c.Wafers = 1 }},
		{"zero horizon", func(c *Config) { c.Horizon = 0 }},
		{"negative horizon", func(c *Config) { c.Horizon = -unit.Second }},
		{"zero sample cadence", func(c *Config) { c.SampleEvery = 0 }},
		{"negative sample cadence", func(c *Config) { c.SampleEvery = -unit.Second }},
		{"zero jobs", func(c *Config) { c.Jobs = 0 }},
		{"negative jobs", func(c *Config) { c.Jobs = -1 }},
		{"endpoints exceed chips", func(c *Config) { c.Jobs = 1000 }},
		// 31 jobs fill 62 of the two-wafer rack's 64 chips, leaving
		// too few for the spare pool.
		{"spares exceed chips", func(c *Config) { c.Jobs = 31 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := valid
			tc.mutate(&cfg)
			if err := cfg.validate(); err == nil {
				t.Errorf("validate accepted %+v", cfg)
			}
		})
	}
}
