package config

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestDefaultMatchesTable3(t *testing.T) {
	c := Default()
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if c.Z != 4 || c.StashEntries != 200 || c.TempPosMapSize != 96 {
		t.Errorf("controller parameters diverge from Table 3: %+v", c)
	}
	if c.NVM.TRCD != 48 || c.NVM.TWP != 60 {
		t.Errorf("PCM timing diverges from Table 3: %+v", c.NVM)
	}
	if got := c.CoreCyclesPerNVMCycle(); got != 8 {
		t.Errorf("clock ratio = %d, want 8 (3.2GHz / 400MHz)", got)
	}
}

func TestSTTRAMPreset(t *testing.T) {
	s := STTRAM()
	if s.TRCD != 14 || s.TWP != 14 || s.TCWD != 10 || s.TWTR != 5 {
		t.Errorf("STTRAM timing diverges from Table 3: %+v", s)
	}
	if s.WriteLatency() >= PCM().WriteLatency() {
		t.Errorf("STTRAM writes should be faster than PCM")
	}
}

func TestLatencyHelpers(t *testing.T) {
	p := PCM()
	if got := p.ReadLatency(); got != 50 {
		t.Errorf("PCM ReadLatency = %d, want 50", got)
	}
	if got := p.WriteLatency(); got != 112 {
		t.Errorf("PCM WriteLatency = %d, want 112", got)
	}
}

func TestSchemeString(t *testing.T) {
	for _, s := range Schemes() {
		if strings.HasPrefix(s.String(), "Scheme(") {
			t.Errorf("scheme %d has no name", int(s))
		}
	}
	if Scheme(99).String() != "Scheme(99)" {
		t.Errorf("unknown scheme should fall back to numeric form")
	}
}

func TestParseSchemes(t *testing.T) {
	for _, s := range Schemes() {
		got, err := ParseScheme(s.String())
		if err != nil || got != s {
			t.Errorf("ParseScheme(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseScheme("Bogus"); err == nil {
		t.Error("ParseScheme accepted an unknown name")
	}
	all, err := ParseSchemes("all")
	if err != nil || len(all) != len(Schemes()) {
		t.Errorf("ParseSchemes(all) = %v, %v", all, err)
	}
	got, err := ParseSchemes("PS-ORAM, Baseline")
	if err != nil || len(got) != 2 || got[0] != SchemePSORAM || got[1] != SchemeBaseline {
		t.Errorf("ParseSchemes list = %v, %v", got, err)
	}
	if _, err := ParseSchemes("PS-ORAM,Bogus"); err == nil {
		t.Error("ParseSchemes accepted an unknown name")
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"block not power of two", func(c *Config) { c.BlockBytes = 65 }},
		{"zero Z", func(c *Config) { c.Z = 0 }},
		{"bad channels", func(c *Config) { c.Channels = 3 }},
		{"zero banks", func(c *Config) { c.BanksPerChannel = 0 }},
		{"bad utilization", func(c *Config) { c.Utilization = 0 }},
		{"zero WPQ", func(c *Config) { c.DataWPQEntries = 0 }},
		{"zero temp posmap", func(c *Config) { c.TempPosMapSize = 0 }},
		{"slow core", func(c *Config) { c.CoreFreqMHz = 100 }},
		{"huge posmap entry", func(c *Config) { c.PosMapEntryBytes = 16 }},
		{"negative write buffer", func(c *Config) { c.WriteBufferEntries = -1 }},
		{"zero PLB", func(c *Config) { c.PLBEntries = 0 }},
		{"zero on-chip PosMap", func(c *Config) { c.OnChipPosMapBytes = 0 }},
	}
	for _, m := range mutations {
		c := Default()
		m.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid config", m.name)
		}
	}
}

// TestValidateErrorMessages pins the message text for the error paths
// that surface through the sweep CLI's flag parsing, so a bad -channels
// or -levels value produces a diagnosable message rather than a generic
// failure.
func TestValidateErrorMessages(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"channels 3", func(c *Config) { c.Channels = 3 }, "config: Channels must be 1, 2, 4 or 8, got 3"},
		{"channels 0", func(c *Config) { c.Channels = 0 }, "config: Channels must be 1, 2, 4 or 8, got 0"},
		{"channels 16", func(c *Config) { c.Channels = 16 }, "config: Channels must be 1, 2, 4 or 8, got 16"},
		{"block 65", func(c *Config) { c.BlockBytes = 65 }, "config: BlockBytes 65 must be a positive power of two"},
		{"utilization 0", func(c *Config) { c.Utilization = 0 }, "config: Utilization must be in (0,1], got 0.000000"},
		{"utilization 2", func(c *Config) { c.Utilization = 2 }, "config: Utilization must be in (0,1], got 2.000000"},
		{"zero Z", func(c *Config) { c.Z = 0 }, "config: Z must be positive, got 0"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := Default()
			c.mut(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("Validate accepted invalid config")
			}
			if err.Error() != c.want {
				t.Errorf("error = %q, want %q", err.Error(), c.want)
			}
		})
	}
}

func TestTreeLevelsForMonotonic(t *testing.T) {
	c := Default()
	prev := 0
	for _, n := range []uint64{1, 10, 100, 1000, 10000, 1 << 20, 1 << 25} {
		l := c.TreeLevelsFor(n)
		if l < prev {
			t.Fatalf("TreeLevelsFor not monotonic at %d: %d < %d", n, l, prev)
		}
		prev = l
	}
}

func TestTreeLevelsForCapacity(t *testing.T) {
	// The tree selected for n blocks must actually hold n real blocks at
	// the configured utilization.
	c := Default()
	f := func(seed uint64) bool {
		n := seed%100000 + 1
		l := c.TreeLevelsFor(n)
		buckets := uint64(1)<<(uint(l)+1) - 1
		return float64(buckets*uint64(c.Z))*c.Utilization >= float64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
