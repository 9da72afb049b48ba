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
		{"zero crews", func(c *Config) { c.Crews = 0 }},
		{"negative crews", func(c *Config) { c.Crews = -1 }},
		{"negative spares", func(c *Config) { c.Spares = -1 }},
		{"zero jobs", func(c *Config) { c.Jobs = 0 }},
		{"negative jobs", func(c *Config) { c.Jobs = -1 }},
		{"zero width", func(c *Config) { c.Width = 0 }},
		{"negative width", func(c *Config) { c.Width = -2 }},
		{"unknown sample mode", func(c *Config) { c.SampleMode = SampleMode(3) }},
		{"negative sample mode", func(c *Config) { c.SampleMode = SampleMode(-1) }},
		{"zero reservoir", func(c *Config) { c.ReservoirCap = 0 }},
		{"negative reservoir", func(c *Config) { c.ReservoirCap = -8 }},
		{"endpoints exceed chips", func(c *Config) { c.Jobs = 1000 }},
		{"spares exceed chips", func(c *Config) { c.Spares = 1000 }},
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
