package workload

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"lbica/internal/sim"
)

func testScale() Scale {
	return Scale{Interval: 50 * time.Millisecond, Intervals: 8, RateFactor: 1, BurstMult: 1}
}

func TestRegistryRegisterRejectsBadEntries(t *testing.T) {
	r := NewRegistry()
	b := func(Scale, *sim.RNG) Generator { return nil }
	if err := r.Register("", b); err == nil {
		t.Error("empty name accepted")
	}
	if err := r.Register("x", nil); err == nil {
		t.Error("nil builder accepted")
	}
	if err := r.Register("x", b); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("x", b); err == nil {
		t.Error("duplicate name accepted")
	}
	if err := r.RegisterFamily("fam-", "fam-<n>", func(string) (Builder, error) { return b, nil }); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterFamily("fam-", "fam-<n>", func(string) (Builder, error) { return b, nil }); err == nil {
		t.Error("duplicate family prefix accepted")
	}
	if err := r.RegisterFamily("", "", nil); err == nil {
		t.Error("empty family accepted")
	}
}

// TestRegistryResolveExactBeforeFamily: an exact entry wins over a family
// whose prefix also matches, and among families the longest prefix wins.
func TestRegistryResolveExactBeforeFamily(t *testing.T) {
	r := NewRegistry()
	mark := ""
	mk := func(tag string) Builder {
		return func(Scale, *sim.RNG) Generator { mark = tag; return nil }
	}
	if err := r.Register("a-b", mk("exact")); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterFamily("a-", "a-<x>", func(string) (Builder, error) { return mk("short"), nil }); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterFamily("a-b-", "a-b-<x>", func(string) (Builder, error) { return mk("long"), nil }); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{"a-b": "exact", "a-zzz": "short", "a-b-1": "long"} {
		b, err := r.Resolve(name)
		if err != nil {
			t.Fatalf("Resolve(%q): %v", name, err)
		}
		b(Scale{}, nil)
		if mark != want {
			t.Errorf("Resolve(%q) hit %q entry, want %q", name, mark, want)
		}
	}
	if _, err := r.Resolve("zzz"); err == nil {
		t.Error("unknown name resolved")
	}
}

// TestDefaultCatalog: every advertised exact name builds a generator that
// emits requests, and its Name() matches the catalog name (so run results
// label themselves consistently).
func TestDefaultCatalog(t *testing.T) {
	names := Default.Names()
	if len(names) < 11 {
		t.Fatalf("catalog has %d names, want the trio + synth + burst-mix presets: %v", len(names), names)
	}
	for _, name := range names {
		b, err := Default.Resolve(name)
		if err != nil {
			t.Fatalf("catalog name %q does not resolve: %v", name, err)
		}
		g := b(testScale(), sim.NewRNG(1, "wl:"+name))
		if g.Name() != name {
			t.Errorf("catalog %q builds generator named %q", name, g.Name())
		}
		n := 0
		for {
			if _, ok := g.Next(); !ok {
				break
			}
			n++
		}
		if n == 0 {
			t.Errorf("catalog %q generated no requests", name)
		}
	}
}

// TestCheckScaleRateFloor: every catalog entry and alias runs at the
// default scale, and a rate factor, burst multiplier or ON-rate multiple
// that takes a phase's rate below MinIOPS is an error naming the phase and
// the floor. Each such scale once ran one request at t≈0.
func TestCheckScaleRateFloor(t *testing.T) {
	for _, name := range append(Default.Names(), Default.Aliases()...) {
		if err := Default.CheckScale(name, DefaultScale()); err != nil {
			t.Errorf("%s at the default scale: %v", name, err)
		}
	}
	slow := DefaultScale()
	slow.RateFactor = 1e-300
	burst := DefaultScale()
	burst.BurstMult = 1e-13
	for _, c := range []struct {
		name string
		s    Scale
	}{
		{"tpcc", slow},
		{"synth-randread", slow},
		{"random-write", slow},
		{"mail", burst},
		{"burst-mix-on1e-300x-duty0.5-read0.5", DefaultScale()},
	} {
		err := Default.CheckScale(c.name, c.s)
		if err == nil || !strings.Contains(err.Error(), "phase ") || !strings.Contains(err.Error(), "MinIOPS") {
			t.Errorf("%s at %+v: %v, want an error naming the phase and MinIOPS", c.name, c.s, err)
		}
	}
	if err := Default.CheckScale("no-such-workload", DefaultScale()); err == nil {
		t.Error("an unknown name passed the scale check")
	}
}

// TestFamilyNamesRoundTrip pins the parameterized name grammar.
func TestFamilyNamesRoundTrip(t *testing.T) {
	for _, name := range []string{
		"synth-randread-zipf1.2",
		"synth-randread-zipf0",
		"synth-randwrite-zipf0.5",
		"burst-mix-on6x-duty0.45-read0.35",
		"burst-mix-on2x-duty0.1-read1",
	} {
		b, err := Default.Resolve(name)
		if err != nil {
			t.Fatalf("Resolve(%q): %v", name, err)
		}
		g := b(testScale(), sim.NewRNG(1, "wl"))
		if g.Name() != name {
			t.Errorf("%q builds generator named %q", name, g.Name())
		}
	}
	for _, name := range []string{
		"synth-randread-zipfX",
		"synth-randread-zipf9",
		"synth-randread-zipf-1",
		"burst-mix-on0x-duty0.3-read0.5",
		"burst-mix-on4x-duty0-read0.5",
		"burst-mix-on4x-duty0.99-read0.5",
		"burst-mix-on4x-duty0.3-read1.5",
		"burst-mix-on4x-duty0.3",
		"burst-mix-nonsense",
	} {
		if _, err := Default.Resolve(name); err == nil {
			t.Errorf("bad family name %q resolved", name)
		}
	}
}

// TestZipfFamilySkewsLocality: a higher encoded Zipf exponent concentrates
// references onto fewer distinct blocks — the parameter in the name has to
// actually reach the generator.
func TestZipfFamilySkewsLocality(t *testing.T) {
	distinct := func(name string) int {
		b, err := Default.Resolve(name)
		if err != nil {
			t.Fatal(err)
		}
		g := b(testScale(), sim.NewRNG(7, "wl"))
		seen := map[int64]bool{}
		for i := 0; i < 3000; i++ {
			r, ok := g.Next()
			if !ok {
				break
			}
			seen[r.Extent.LBA] = true
		}
		return len(seen)
	}
	lo, hi := distinct("synth-randread-zipf0.2"), distinct("synth-randread-zipf1.4")
	if hi >= lo {
		t.Errorf("zipf1.4 touched %d distinct blocks, zipf0.2 %d — exponent did not skew locality", hi, lo)
	}
}

// TestApplyBurstScalesShape pins the burst-multiplier semantics: ON-rate
// and duty cycle scale together, the ON+OFF period is preserved, the duty
// cycle caps at maxDuty, and a multiplier of exactly 1 is the identity.
func TestApplyBurstScalesShape(t *testing.T) {
	base := []Phase{
		{Name: "steady", Duration: time.Second, BaseIOPS: 100},
		{Name: "burst", Duration: time.Second, BaseIOPS: 100, BurstIOPS: 1000,
			BurstOn: 60 * time.Millisecond, BurstOff: 140 * time.Millisecond},
	}
	s := Scale{BurstMult: 2}
	out := s.applyBurst(base)
	if !reflect.DeepEqual(out[0], base[0]) {
		t.Errorf("non-bursting phase changed: %+v", out[0])
	}
	b := out[1]
	if b.BurstIOPS != 2000 {
		t.Errorf("BurstIOPS = %v, want 2000", b.BurstIOPS)
	}
	if period := b.BurstOn + b.BurstOff; period != 200*time.Millisecond {
		t.Errorf("ON+OFF period = %v, want preserved 200ms", period)
	}
	if b.BurstOn != 120*time.Millisecond {
		t.Errorf("BurstOn = %v, want 120ms (duty 0.3 → 0.6)", b.BurstOn)
	}
	// Cap: duty 0.3 × 4 = 1.2 clamps to maxDuty.
	capd := Scale{BurstMult: 4}.applyBurst(base)[1]
	if got := float64(capd.BurstOn) / float64(capd.BurstOn+capd.BurstOff); got > maxDuty+1e-9 {
		t.Errorf("duty cycle %v exceeds cap %v", got, maxDuty)
	}
	// Identity must be exact — pre-existing goldens depend on it.
	id := Scale{BurstMult: 1}.applyBurst(base)
	for i := range base {
		if !reflect.DeepEqual(id[i], base[i]) {
			t.Errorf("BurstMult 1 changed phase %d: %+v != %+v", i, id[i], base[i])
		}
	}
}

// TestScaleNormalizePanicsOnNegative: zero means default; a negative field
// is a caller bug and must not be silently rewritten.
func TestScaleNormalizePanicsOnNegative(t *testing.T) {
	for _, s := range []Scale{
		{RateFactor: -1},
		{Intervals: -3},
		{Interval: -time.Second},
		{BurstMult: -0.5},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Scale %+v normalized without panic", s)
				}
			}()
			s.normalize()
		}()
	}
	n := Scale{}.normalize()
	if n.Interval != 200*time.Millisecond || n.Intervals != 200 || n.RateFactor != 1 || n.BurstMult != 1 {
		t.Errorf("zero Scale normalized to %+v, want the documented defaults", n)
	}
}

// TestBurstMixIntensity: scaling the burst multiplier up makes the
// burst-mix stream arrive faster (more requests in the same virtual
// span) — the axis has to change the generated workload, not just its
// label.
func TestBurstMixIntensity(t *testing.T) {
	count := func(bm float64) int {
		b, err := Default.Resolve("burst-mix-hi")
		if err != nil {
			t.Fatal(err)
		}
		s := testScale()
		s.BurstMult = bm
		g := b(s, sim.NewRNG(11, "wl"))
		n := 0
		for {
			if _, ok := g.Next(); !ok {
				break
			}
			n++
		}
		return n
	}
	soft, published, sharp := count(0.5), count(1), count(2)
	if !(soft < published && published < sharp) {
		t.Errorf("request counts not ordered by burst intensity: 0.5× %d, 1× %d, 2× %d", soft, published, sharp)
	}
}

// TestHostileRegistryNames: the registry itself accepts any non-empty
// name — quoting and sanitizing are the emitters' job — so a name full of
// CSV metacharacters must register and resolve.
func TestHostileRegistryNames(t *testing.T) {
	r := NewRegistry()
	hostile := `wl,"quoted"` + "\nnewline"
	if err := r.Register(hostile, func(s Scale, g *sim.RNG) Generator {
		return NewPhaseGen(hostile, []Phase{{Name: "p", Duration: time.Second, BaseIOPS: 10, WorkingSetBlocks: 64}}, g)
	}); err != nil {
		t.Fatal(err)
	}
	b, err := r.Resolve(hostile)
	if err != nil {
		t.Fatal(err)
	}
	if g := b(testScale(), sim.NewRNG(1, "wl")); !strings.Contains(g.Name(), "quoted") {
		t.Errorf("hostile name mangled: %q", g.Name())
	}
}

// Every catalog stream, recorded, is a valid replay: time-ordered,
// well-formed requests within the catalog's 128-sector largest size.
func TestCatalogStreamsAreValidRecordings(t *testing.T) {
	names := append(Default.Names(), Default.Aliases()...)
	names = append(names, "synth-randread-zipf1.2", "synth-randwrite-zipf0.8", "burst-mix-on6x-duty0.45-read0.35")
	scale := Scale{Interval: 200 * time.Millisecond, Intervals: 40, RateFactor: 1, BurstMult: 1}
	for _, name := range names {
		b, err := Default.Resolve(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		reqs := Drain(b(scale, sim.NewRNG(1, "workload:"+name)))
		if err := ValidateRequests(reqs); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		for _, r := range reqs {
			if r.Extent.Sectors > 128 {
				t.Errorf("%s: a request of %d sectors", name, r.Extent.Sectors)
				break
			}
		}
	}
}
