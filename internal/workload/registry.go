package workload

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"lbica/internal/sim"
)

// Builder constructs a workload generator at a given scale. Builders are
// the registry's currency: a name resolves to a Builder, and the caller
// supplies the Scale (monitor interval, run length, rate/burst multipliers)
// and the RNG stream, so one registration serves every grid cell.
type Builder func(Scale, *sim.RNG) Generator

// family is a parameterized workload entry: every name starting with
// prefix is handed to parse, which decodes the parameters encoded in the
// suffix (e.g. "synth-randread-zipf1.2" → Zipf exponent 1.2).
type family struct {
	prefix  string
	pattern string // human-readable shape, for error messages and help text
	parse   func(name string) (Builder, error)
}

// Registry maps workload names to Builders. It holds two kinds of entry:
// exact names ("tpcc", "synth-randread", "burst-mix-hi") and parameterized
// families whose parameters are encoded in the name itself
// ("synth-randread-zipf<e>", "burst-mix-on<m>x-duty<d>-read<r>"), so a
// sweep axis can name arbitrary points of a family without a registration
// per point. Resolution order is exact-first, then the longest matching
// family prefix. The zero Registry is not usable; call NewRegistry.
type Registry struct {
	names    []string // exact names in registration order
	aliases  []string // legacy alias names in registration order
	exact    map[string]Builder
	families []family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{exact: make(map[string]Builder)}
}

// Register adds an exact-name entry. Names are free-form non-empty strings
// (the emitters quote hostile characters and the series exporter sanitizes
// file names), but a duplicate registration is an error: the second entry
// would silently shadow the first.
func (r *Registry) Register(name string, b Builder) error {
	if err := r.add(name, b); err != nil {
		return err
	}
	r.names = append(r.names, name)
	return nil
}

// RegisterAlias adds a legacy name. It resolves exactly like a Register
// entry but is listed by Aliases, not Names: its generator may label
// itself differently (the legacy "mixed" stream is named "mixed-rw"), so
// it stays outside the catalog's name-equals-label contract.
func (r *Registry) RegisterAlias(name string, b Builder) error {
	if err := r.add(name, b); err != nil {
		return err
	}
	r.aliases = append(r.aliases, name)
	return nil
}

func (r *Registry) add(name string, b Builder) error {
	if name == "" {
		return fmt.Errorf("workload: empty registry name")
	}
	if b == nil {
		return fmt.Errorf("workload: nil builder for %q", name)
	}
	if _, dup := r.exact[name]; dup {
		return fmt.Errorf("workload: duplicate registry name %q", name)
	}
	r.exact[name] = b
	return nil
}

// RegisterFamily adds a parameterized entry covering every name with the
// given prefix. pattern documents the expected shape for error messages
// (e.g. "synth-randread-zipf<exp>").
func (r *Registry) RegisterFamily(prefix, pattern string, parse func(name string) (Builder, error)) error {
	if prefix == "" || parse == nil {
		return fmt.Errorf("workload: family needs a prefix and a parser")
	}
	for _, f := range r.families {
		if f.prefix == prefix {
			return fmt.Errorf("workload: duplicate family prefix %q", prefix)
		}
	}
	r.families = append(r.families, family{prefix: prefix, pattern: pattern, parse: parse})
	return nil
}

// Resolve returns the Builder for a name: an exact entry if one exists,
// otherwise the longest-prefix family match (longest wins so
// "synth-randread-zipf1.2" reaches the zipf family even though
// "synth-randread" is also registered as an exact name).
func (r *Registry) Resolve(name string) (Builder, error) {
	if b, ok := r.exact[name]; ok {
		return b, nil
	}
	best := -1
	for i, f := range r.families {
		if strings.HasPrefix(name, f.prefix) && (best < 0 || len(f.prefix) > len(r.families[best].prefix)) {
			best = i
		}
	}
	if best >= 0 {
		b, err := r.families[best].parse(name)
		if err != nil {
			return nil, fmt.Errorf("workload: %q does not parse as %s: %w", name, r.families[best].pattern, err)
		}
		return b, nil
	}
	return nil, fmt.Errorf("workload: unknown workload %q (want one of %s, or a family %s)",
		name, strings.Join(append(r.Names(), r.Aliases()...), "|"), strings.Join(r.Patterns(), "|"))
}

// Names returns the exact entry names, sorted for stable error messages
// and help text.
func (r *Registry) Names() []string { return sorted(r.names) }

// Aliases returns the legacy alias names, sorted.
func (r *Registry) Aliases() []string { return sorted(r.aliases) }

func sorted(names []string) []string {
	out := append([]string(nil), names...)
	sort.Strings(out)
	return out
}

// Patterns returns the family name shapes in registration order.
func (r *Registry) Patterns() []string {
	out := make([]string, len(r.families))
	for i, f := range r.families {
		out[i] = f.pattern
	}
	return out
}

// Default is the built-in catalog: the paper's three applications, the
// synthetic primitives promoted to named entries, and the parameterized
// synth/burst-mix families. Experiment specs and sweep grids resolve
// workload names through it.
var Default = buildDefaultRegistry()

func buildDefaultRegistry() *Registry {
	r := NewRegistry()
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	// The paper trio. The Builder signature hands the Scale straight
	// through, so these are byte-identical to calling TPCC/MailServer/
	// WebServer directly.
	must(r.Register("tpcc", func(s Scale, g *sim.RNG) Generator { return TPCC(s, g) }))
	must(r.Register("mail", func(s Scale, g *sim.RNG) Generator { return MailServer(s, g) }))
	must(r.Register("web", func(s Scale, g *sim.RNG) Generator { return WebServer(s, g) }))

	// Synthetic primitives as catalog entries.
	must(r.Register("synth-randread", synthRand("synth-randread", 1, defaultZipf)))
	must(r.Register("synth-randwrite", synthRand("synth-randwrite", 0, defaultZipf)))
	must(r.Register("synth-mixed", synthRand("synth-mixed", 0.5, 0.9)))
	must(r.Register("synth-seqread", synthSeq("synth-seqread", 1)))
	must(r.Register("synth-seqwrite", synthSeq("synth-seqwrite", 0)))

	// Zipf-parameterized random families: synth-randread-zipf1.2 etc.
	must(r.RegisterFamily("synth-randread-zipf", "synth-randread-zipf<exp>", zipfFamily("synth-randread-zipf", 1)))
	must(r.RegisterFamily("synth-randwrite-zipf", "synth-randwrite-zipf<exp>", zipfFamily("synth-randwrite-zipf", 0)))

	// The burst-mix catalog: ON/OFF-modulated mixed streams whose ON-rate
	// multiple, duty cycle and read ratio are encoded in the name, plus
	// three presets spanning mild to adversarial burst pressure.
	must(r.Register("burst-mix-lo", burstMix("burst-mix-lo", 2, 0.2, 0.7)))
	must(r.Register("burst-mix-mid", burstMix("burst-mix-mid", 4, 0.3, 0.5)))
	must(r.Register("burst-mix-hi", burstMix("burst-mix-hi", 6, 0.45, 0.35)))
	must(r.RegisterFamily("burst-mix-on", "burst-mix-on<mult>x-duty<frac>-read<ratio>", parseBurstMix))

	// The legacy aliases of the lbica front door: the single-phase
	// primitives over the whole run.
	must(r.RegisterAlias("random-read", primitive(RandomRead, synthRandomWS)))
	must(r.RegisterAlias("random-write", primitive(RandomWrite, synthRandomWS)))
	must(r.RegisterAlias("seq-read", primitive(SequentialRead, synthSeqWS)))
	must(r.RegisterAlias("seq-write", primitive(SequentialWrite, synthSeqWS)))
	must(r.RegisterAlias("mixed", primitive(MixedRW, synthRandomWS)))
	return r
}

// Synthetic catalog constants: one 4 KiB-block working set roughly 1.5×
// the default cache for the random streams (so misses stay alive past
// prewarm), the sequential streams over a large span, and the synthetic
// arrival rate.
const (
	synthIOPS      = 8000
	synthRandomWS  = 96 * 1024
	synthSeqWS     = 1 << 20
	defaultZipf    = 0.8
	burstMixBase   = 3000
	burstMixPeriod = 200 * time.Millisecond
)

// primitive adapts a single-phase primitive constructor (RandomRead, …)
// to a Builder: the stream spans the whole run at synthIOPS × RateFactor
// over ws blocks.
func primitive(build func(time.Duration, float64, int64, *sim.RNG) *PhaseGen, ws int64) Builder {
	return func(s Scale, g *sim.RNG) Generator {
		s = s.normalize()
		return build(s.span(s.Intervals), synthIOPS*s.RateFactor, ws, g)
	}
}

// synthRand builds a single-phase random stream entry.
func synthRand(name string, readRatio, zipf float64) Builder {
	return func(s Scale, g *sim.RNG) Generator {
		s = s.normalize()
		return NewPhaseGen(name, []Phase{{
			Name:             "synth",
			Duration:         s.span(s.Intervals),
			BaseIOPS:         synthIOPS * s.RateFactor,
			ReadRatio:        readRatio,
			WorkingSetBlocks: synthRandomWS,
			ZipfExponent:     zipf,
		}}, g)
	}
}

// synthSeq builds a single-phase sequential stream entry (95% run
// continuation, large transfers).
func synthSeq(name string, readRatio float64) Builder {
	return func(s Scale, g *sim.RNG) Generator {
		s = s.normalize()
		return NewPhaseGen(name, []Phase{{
			Name:             "synth",
			Duration:         s.span(s.Intervals),
			BaseIOPS:         synthIOPS * s.RateFactor,
			ReadRatio:        readRatio,
			WorkingSetBlocks: synthSeqWS,
			Sequential:       0.95,
			SizesSectors:     []int64{64, 128},
		}}, g)
	}
}

// zipfFamily parses "<prefix><exp>" names into Zipf-skewed random streams.
func zipfFamily(prefix string, readRatio float64) func(string) (Builder, error) {
	return func(name string) (Builder, error) {
		exp, err := strconv.ParseFloat(strings.TrimPrefix(name, prefix), 64)
		if err != nil {
			return nil, fmt.Errorf("bad exponent: %w", err)
		}
		if !(exp >= 0 && exp <= 4) {
			return nil, fmt.Errorf("exponent %v outside [0, 4]", exp)
		}
		return synthRand(name, readRatio, exp), nil
	}
}

// burstMix builds an ON/OFF-modulated mixed stream: the OFF rate is
// burstMixBase, the ON rate onMult× that, with the given duty cycle over a
// fixed 200 ms period and the given read ratio. Scale.BurstMult composes
// on top (it scales the encoded ON rate and duty further), so the
// burst-intensity sweep axis applies to the family exactly as it does to
// the paper trio.
func burstMix(name string, onMult, duty, readRatio float64) Builder {
	return func(s Scale, g *sim.RNG) Generator {
		s = s.normalize()
		on := time.Duration(duty * float64(burstMixPeriod))
		phases := []Phase{{
			Name:             "burst-mix",
			Duration:         s.span(s.Intervals),
			BaseIOPS:         burstMixBase * s.RateFactor,
			BurstIOPS:        onMult * burstMixBase * s.RateFactor,
			BurstOn:          on,
			BurstOff:         burstMixPeriod - on,
			ReadRatio:        readRatio,
			WorkingSetBlocks: synthRandomWS,
			ZipfExponent:     1.0,
		}}
		return NewPhaseGen(name, s.applyBurst(phases), g)
	}
}

// parseBurstMix decodes "burst-mix-on<m>x-duty<d>-read<r>" names.
func parseBurstMix(name string) (Builder, error) {
	rest, ok := strings.CutPrefix(name, "burst-mix-on")
	if !ok {
		return nil, fmt.Errorf("missing burst-mix-on prefix")
	}
	onStr, rest, ok := strings.Cut(rest, "x-duty")
	if !ok {
		return nil, fmt.Errorf("missing x-duty segment")
	}
	dutyStr, readStr, ok := strings.Cut(rest, "-read")
	if !ok {
		return nil, fmt.Errorf("missing -read segment")
	}
	onMult, err := strconv.ParseFloat(onStr, 64)
	if err != nil {
		return nil, fmt.Errorf("bad ON-rate multiple: %w", err)
	}
	duty, err := strconv.ParseFloat(dutyStr, 64)
	if err != nil {
		return nil, fmt.Errorf("bad duty cycle: %w", err)
	}
	read, err := strconv.ParseFloat(readStr, 64)
	if err != nil {
		return nil, fmt.Errorf("bad read ratio: %w", err)
	}
	if !(onMult > 0 && onMult <= 100) {
		return nil, fmt.Errorf("ON-rate multiple %v outside (0, 100]", onMult)
	}
	if !(duty > 0 && duty <= maxDuty) {
		return nil, fmt.Errorf("duty cycle %v outside (0, %v]", duty, maxDuty)
	}
	if !(read >= 0 && read <= 1) {
		return nil, fmt.Errorf("read ratio %v outside [0, 1]", read)
	}
	return burstMix(name, onMult, duty, read), nil
}
