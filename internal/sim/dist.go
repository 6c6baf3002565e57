package sim

import (
	"fmt"
	"math"
	"time"
)

// Dist is a distribution over durations, used for device service times and
// arrival gaps. Implementations must be safe to share across components only
// if the underlying RNG is not shared; in practice each component owns its
// distribution and stream.
type Dist interface {
	// Sample draws one duration. Results are always >= 0.
	Sample() time.Duration
	// Mean returns the distribution mean; monitors use it as the calibrated
	// per-request service latency in Eq. 1.
	Mean() time.Duration
	// String describes the distribution for logs and configs.
	String() string
}

// Deterministic always returns a constant value.
type Deterministic struct{ V time.Duration }

// Sample implements Dist.
func (d Deterministic) Sample() time.Duration { return d.V }

// Mean implements Dist.
func (d Deterministic) Mean() time.Duration { return d.V }

func (d Deterministic) String() string { return fmt.Sprintf("det(%v)", d.V) }

// Uniform draws uniformly in [Lo, Hi].
type Uniform struct {
	Lo, Hi time.Duration
	G      *RNG
}

// Sample implements Dist.
func (u Uniform) Sample() time.Duration {
	if u.Hi <= u.Lo {
		return u.Lo
	}
	return u.Lo + time.Duration(u.G.Int63n(int64(u.Hi-u.Lo)+1))
}

// Mean implements Dist.
func (u Uniform) Mean() time.Duration { return (u.Lo + u.Hi) / 2 }

func (u Uniform) String() string { return fmt.Sprintf("uniform(%v,%v)", u.Lo, u.Hi) }

// Exponential draws exponentially with the given mean.
type Exponential struct {
	M time.Duration
	G *RNG
}

// Sample implements Dist.
func (e Exponential) Sample() time.Duration {
	return time.Duration(float64(e.M) * e.G.ExpFloat64())
}

// Mean implements Dist.
func (e Exponential) Mean() time.Duration { return e.M }

func (e Exponential) String() string { return fmt.Sprintf("exp(%v)", e.M) }

// LogNormal draws log-normally, parameterized by the desired mean and a
// shape sigma (sigma of the underlying normal). Real device latencies are
// right-skewed; lognormal is the conventional stand-in. Build one with
// NewLogNormal.
type LogNormal struct {
	m     time.Duration
	sigma float64
	mu    float64 // location of the underlying normal, fixed by m and sigma
	g     *RNG
}

// NewLogNormal returns a log-normal distribution with mean m and shape
// sigma, drawing from g.
func NewLogNormal(m time.Duration, sigma float64, g *RNG) LogNormal {
	// E[lognormal(mu, sigma)] = exp(mu + sigma^2/2); solve mu for mean m.
	return LogNormal{m: m, sigma: sigma, mu: math.Log(float64(m)) - sigma*sigma/2, g: g}
}

// Sample implements Dist.
func (l LogNormal) Sample() time.Duration {
	v := math.Exp(l.mu + l.sigma*l.g.NormFloat64())
	if v < 0 {
		v = 0
	}
	return time.Duration(v)
}

// Mean implements Dist.
func (l LogNormal) Mean() time.Duration { return l.m }

func (l LogNormal) String() string { return fmt.Sprintf("lognormal(%v,σ=%.2f)", l.m, l.sigma) }

// BoundedPareto draws from a Pareto tail truncated to [Lo, Hi], exponent
// Alpha. Used for heavy-tailed burst gaps.
type BoundedPareto struct {
	Lo, Hi time.Duration
	Alpha  float64
	G      *RNG
}

// Sample implements Dist.
func (p BoundedPareto) Sample() time.Duration {
	if p.Hi <= p.Lo {
		return p.Lo
	}
	l, h, a := float64(p.Lo), float64(p.Hi), p.Alpha
	u := p.G.Float64()
	la, ha := math.Pow(l, a), math.Pow(h, a)
	x := math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/a)
	if x < l {
		x = l
	}
	if x > h {
		x = h
	}
	return time.Duration(x)
}

// Mean implements Dist.
func (p BoundedPareto) Mean() time.Duration {
	if p.Hi <= p.Lo {
		return p.Lo
	}
	l, h, a := float64(p.Lo), float64(p.Hi), p.Alpha
	if a == 1 {
		return time.Duration((h * l / (h - l)) * math.Log(h/l))
	}
	num := math.Pow(l, a) / (1 - math.Pow(l/h, a)) * a / (a - 1) * (1/math.Pow(l, a-1) - 1/math.Pow(h, a-1))
	return time.Duration(num)
}

func (p BoundedPareto) String() string {
	return fmt.Sprintf("pareto(%v,%v,α=%.2f)", p.Lo, p.Hi, p.Alpha)
}
