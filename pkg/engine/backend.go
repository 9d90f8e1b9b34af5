package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/exact"
	"repro/internal/interp"
	"repro/internal/mna"
	"repro/internal/nodal"
)

// Spec names a network function of a circuit.
type Spec struct {
	// Kind is "vgain", "diffgain", "transz" (admittance-cofactor
	// formulations) or "mna" (full MNA formulation, eqs. 7–10: any
	// element kind, the circuit's independent sources drive).
	Kind string
	// In is the input node ("vgain", "transz") or the positive input
	// ("diffgain"). Unused by "mna".
	In string
	// Inn is the negative input node ("diffgain" only).
	Inn string
	// Out is the output node.
	Out string
}

// Formulation is a backend's symbolic setup of one network function:
// the transfer function to interpolate plus formulation-level facts the
// generation stage must honor.
type Formulation struct {
	// Backend is the name of the backend that produced the formulation.
	Backend string
	// TF holds the numerator/denominator evaluators.
	TF *TransferFunction
	// FrequencyOnly reports that only frequency scaling transforms the
	// coefficients exactly (the MNA formulation: determinant terms mix
	// admittance factors with dimensionless source entries). Generate
	// responds by forcing single-factor updates with a unit conductance
	// scale.
	FrequencyOnly bool
	// ExactNum and ExactDen hold the exact-arithmetic reference
	// polynomials when the backend computes them (the "exact" oracle
	// backend); nil otherwise.
	ExactNum, ExactDen Poly
	// Share is an opaque handle a SharedFormulator backend attaches so a
	// later same-topology formulation can adopt this one's factorization
	// state (pivot-order plans); nil for backends without the capability.
	Share any
}

// SharedFormulator is an optional Backend capability: FormulateShared is
// Formulate, but adopting reusable factorization state — primed sparse
// pivot-order plans — from a prior formulation of the same topology
// (prior nil or mismatched topology degrades to a plain Formulate).
// GenerateBatch uses it so the first point's plan priming serves every
// later point of a sweep.
type SharedFormulator interface {
	FormulateShared(c *Circuit, spec Spec, prior *Formulation) (*Formulation, error)
}

// Backend turns a circuit and a network-function spec into a
// Formulation. Implementations must be safe for concurrent use.
type Backend interface {
	// Name is the registry key ("nodal", "mna", "exact", ...).
	Name() string
	// Formulate builds the transfer function for spec.
	Formulate(c *Circuit, spec Spec) (*Formulation, error)
}

var (
	backendMu  sync.RWMutex
	backendReg = map[string]Backend{}
)

// Register adds a backend to the registry under its Name. It panics on
// an empty name or a duplicate registration, mirroring database/sql —
// registration is an init-time programming act, not a runtime input.
func Register(b Backend) {
	backendMu.Lock()
	defer backendMu.Unlock()
	name := b.Name()
	if name == "" {
		panic("engine: Register with empty backend name")
	}
	if _, dup := backendReg[name]; dup {
		panic("engine: Register called twice for backend " + name)
	}
	backendReg[name] = b
}

var (
	wrapperMu  sync.RWMutex
	wrapperReg = map[string]func(Backend) Backend{}
)

// RegisterWrapper adds a backend-wrapper factory under a prefix: a
// backend name of the form "<prefix>:<inner>" resolves the inner name
// (recursively — wrappers compose, and an empty inner name auto-selects
// from the spec) and passes the resulting backend through the factory.
// The factory is invoked per lookup, so stateful wrappers get a fresh
// state each time. Like Register it panics on an empty, duplicate, or
// ':'-containing prefix. internal/fault registers the "fault" wrapper
// this way.
func RegisterWrapper(prefix string, wrap func(Backend) Backend) {
	wrapperMu.Lock()
	defer wrapperMu.Unlock()
	switch {
	case prefix == "":
		panic("engine: RegisterWrapper with empty prefix")
	case strings.Contains(prefix, ":"):
		panic("engine: RegisterWrapper prefix must not contain ':'")
	case wrap == nil:
		panic("engine: RegisterWrapper with nil factory")
	}
	if _, dup := wrapperReg[prefix]; dup {
		panic("engine: RegisterWrapper called twice for prefix " + prefix)
	}
	wrapperReg[prefix] = wrap
}

// Wrappers lists the registered wrapper prefixes, sorted.
func Wrappers() []string {
	wrapperMu.RLock()
	defer wrapperMu.RUnlock()
	names := make([]string, 0, len(wrapperReg))
	for name := range wrapperReg {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Backends lists the registered backend names, sorted.
func Backends() []string {
	backendMu.RLock()
	defer backendMu.RUnlock()
	names := make([]string, 0, len(backendReg))
	for name := range backendReg {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// lookup resolves a backend name; "" selects automatically from the
// spec: "mna" for the mna kind, "nodal" otherwise. A "<prefix>:<inner>"
// name resolves inner first and wraps it with the registered wrapper
// (see RegisterWrapper); "fault:" alone wraps the auto-selected backend.
func lookup(name string, spec Spec) (Backend, error) {
	if i := strings.Index(name, ":"); i >= 0 {
		wrapperMu.RLock()
		wrap := wrapperReg[name[:i]]
		wrapperMu.RUnlock()
		if wrap == nil {
			return nil, fmt.Errorf("engine: unknown backend wrapper %q in %q (registered: %v)", name[:i], name, Wrappers())
		}
		inner, err := lookup(name[i+1:], spec)
		if err != nil {
			return nil, err
		}
		return wrap(inner), nil
	}
	if name == "" {
		name = autoBackend(spec)
	}
	backendMu.RLock()
	b := backendReg[name]
	backendMu.RUnlock()
	if b == nil {
		return nil, fmt.Errorf("engine: unknown backend %q (registered: %v)", name, Backends())
	}
	return b, nil
}

// autoBackend is the backend an empty name selects: "mna" for the mna
// kind, "nodal" otherwise.
func autoBackend(spec Spec) string {
	if spec.Kind == "mna" {
		return "mna"
	}
	return "nodal"
}

// frequencyOnly reports, without formulating, whether the backend a name
// resolves to sets Formulation.FrequencyOnly: wrapper prefixes are
// stripped to the innermost name, which auto-selects when empty, and
// only the mna backend is frequency-only.
func frequencyOnly(name string, spec Spec) bool {
	if i := strings.LastIndex(name, ":"); i >= 0 {
		name = name[i+1:]
	}
	if name == "" {
		name = autoBackend(spec)
	}
	return name == "mna"
}

// LookupBackend resolves a backend name exactly as the engine does —
// including wrapper prefixes and the empty-name auto-selection against
// spec. It exists for callers that compose backends directly (wrapper
// implementations, dispatch tables).
func LookupBackend(name string, spec Spec) (Backend, error) {
	return lookup(name, spec)
}

func init() {
	Register(nodalBackend{})
	Register(mnaBackend{})
	Register(exactBackend{})
}

// nodalBackend is the admittance-cofactor formulation (paper §2,
// eqs. 2–6): conductance-homogeneous determinants evaluated by sparse
// LU, supporting both frequency and conductance scaling.
type nodalBackend struct{}

func (nodalBackend) Name() string { return "nodal" }

func (nodalBackend) Formulate(c *Circuit, spec Spec) (*Formulation, error) {
	return nodalFormulate(c, spec, nil)
}

func (nodalBackend) FormulateShared(c *Circuit, spec Spec, prior *Formulation) (*Formulation, error) {
	var prev *nodal.System
	if prior != nil {
		prev, _ = prior.Share.(*nodal.System)
	}
	return nodalFormulate(c, spec, prev)
}

// nodalFormulate builds c's system over prev's topology when prev was
// built from c's element list (nodal.BuildShared), and on its own
// otherwise.
func nodalFormulate(c *Circuit, spec Spec, prev *nodal.System) (*Formulation, error) {
	sys, err := nodal.BuildShared(c, prev)
	if err != nil {
		return nil, err
	}
	var tf *TransferFunction
	switch spec.Kind {
	case "vgain":
		tf, err = sys.VoltageGain(c, spec.In, spec.Out)
	case "diffgain":
		tf, err = sys.DifferentialVoltageGain(c, spec.In, spec.Inn, spec.Out)
	case "transz":
		tf, err = sys.Transimpedance(c, spec.In, spec.Out)
	default:
		return nil, fmt.Errorf("engine: backend nodal: unsupported kind %q (want vgain, diffgain or transz)", spec.Kind)
	}
	if err != nil {
		return nil, err
	}
	return &Formulation{Backend: "nodal", TF: tf, Share: sys}, nil
}

// mnaBackend is the full modified-nodal formulation (eqs. 7–10): any
// element kind, independent sources drive, frequency-only scaling.
type mnaBackend struct{}

func (mnaBackend) Name() string { return "mna" }

func (mnaBackend) Formulate(c *Circuit, spec Spec) (*Formulation, error) {
	return mnaFormulate(c, spec, nil)
}

func (mnaBackend) FormulateShared(c *Circuit, spec Spec, prior *Formulation) (*Formulation, error) {
	var prev *mna.System
	if prior != nil {
		prev, _ = prior.Share.(*mna.System)
	}
	return mnaFormulate(c, spec, prev)
}

func mnaFormulate(c *Circuit, spec Spec, prev *mna.System) (*Formulation, error) {
	if spec.Kind != "mna" {
		return nil, fmt.Errorf("engine: backend mna: unsupported kind %q (want mna)", spec.Kind)
	}
	msys, err := mna.BuildShared(c, prev)
	if err != nil {
		return nil, err
	}
	tf, err := msys.TransferEvaluators(spec.Out)
	if err != nil {
		return nil, err
	}
	return &Formulation{Backend: "mna", TF: tf, FrequencyOnly: true, Share: msys}, nil
}

// exactBackend is the exact-arithmetic oracle: it computes both
// polynomials over the rationals with the multi-modular determinant
// (exact.PolyDet) and exposes them as evaluators plus the
// ExactNum/ExactDen reference coefficients. It reaches the µA741 in a
// few seconds, and exists for differential testing, not production use.
type exactBackend struct{}

func (exactBackend) Name() string { return "exact" }

func (exactBackend) Formulate(c *Circuit, spec Spec) (*Formulation, error) {
	n := c.NumNodes()
	var (
		numR, denR exact.RatPoly
		err        error
		mNum, mDen int
	)
	switch spec.Kind {
	case "vgain":
		numR, denR, err = exact.VoltageGain(c, spec.In, spec.Out)
		mNum, mDen = n-1, n-1
	case "diffgain":
		numR, denR, err = exact.DifferentialVoltageGain(c, spec.In, spec.Inn, spec.Out)
		mNum, mDen = n-1, n-1
	case "transz":
		numR, denR, err = exact.Transimpedance(c, spec.In, spec.Out)
		mNum, mDen = n-1, n
	default:
		return nil, fmt.Errorf("engine: backend exact: unsupported kind %q (want vgain, diffgain or transz)", spec.Kind)
	}
	if err != nil {
		return nil, err
	}
	numX, denX := numR.ToXPoly(), denR.ToXPoly()
	return &Formulation{
		Backend: "exact",
		TF: &TransferFunction{
			Name: fmt.Sprintf("exact %s -> %s", spec.Kind, spec.Out),
			Num:  interp.FromPoly("numerator", numX, mNum),
			Den:  interp.FromPoly("denominator", denX, mDen),
		},
		ExactNum: numX,
		ExactDen: denX,
	}, nil
}
