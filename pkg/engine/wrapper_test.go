package engine

import (
	"errors"
	"slices"
	"strings"
	"testing"
)

// registerIdentity registers an identity wrapper under prefix unless an
// earlier run of the same test (-count=2) already did.
func registerIdentity(prefix string) {
	if !slices.Contains(Wrappers(), prefix) {
		RegisterWrapper(prefix, func(b Backend) Backend { return b })
	}
}

func TestRegisterWrapperPanics(t *testing.T) {
	cases := []struct {
		name   string
		prefix string
		wrap   func(Backend) Backend
	}{
		{"empty prefix", "", func(b Backend) Backend { return b }},
		{"prefix with colon", "a:b", func(b Backend) Backend { return b }},
		{"nil func", "test-nil", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("RegisterWrapper did not panic")
				}
			}()
			RegisterWrapper(tc.prefix, tc.wrap)
		})
	}
}

func TestRegisterWrapperDuplicatePanics(t *testing.T) {
	registerIdentity("test-dup")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate RegisterWrapper did not panic")
		}
	}()
	RegisterWrapper("test-dup", func(b Backend) Backend { return b })
}

func TestWrapperResolution(t *testing.T) {
	registerIdentity("test-id")
	b, err := LookupBackend("test-id:nodal", Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "nodal" {
		t.Errorf("identity-wrapped backend Name = %q, want nodal", b.Name())
	}
	// Wrappers compose: prefix resolution recurses on the remainder.
	if _, err := LookupBackend("test-id:test-id:mna", Spec{}); err != nil {
		t.Errorf("nested wrapper resolution failed: %v", err)
	}
	// The engine front door accepts wrapped names too.
	if _, err := New(Config{Backend: "test-id:nodal"}); err != nil {
		t.Errorf("New rejected wrapped backend name: %v", err)
	}
}

func TestUnknownWrapperError(t *testing.T) {
	_, err := LookupBackend("no-such-wrapper:nodal", Spec{})
	if err == nil || !strings.Contains(err.Error(), "unknown backend wrapper") {
		t.Fatalf("err = %v, want unknown-wrapper diagnosis", err)
	}
	if _, err := New(Config{Backend: "no-such-wrapper:nodal"}); err == nil {
		t.Error("New accepted unknown wrapper prefix")
	}
}

func TestWrapperInnerErrorPropagates(t *testing.T) {
	registerIdentity("test-prop")
	if _, err := LookupBackend("test-prop:no-such-backend", Spec{}); err == nil {
		t.Fatal("unknown inner backend accepted through a wrapper")
	}
}

func TestResponseDegraded(t *testing.T) {
	clean := func() *Result { return &Result{Quality: QualityReport{Tier: TierCertified}} }
	deg := func() *Result { return &Result{Quality: QualityReport{Tier: TierDegraded}} }
	cases := []struct {
		name string
		resp Response
		want bool
	}{
		{"empty", Response{}, false},
		{"clean", Response{Num: clean(), Den: clean()}, false},
		{"num degraded", Response{Num: deg()}, true},
		{"den degraded", Response{Num: clean(), Den: deg()}, true},
	}
	for _, tc := range cases {
		if got := tc.resp.Degraded(); got != tc.want {
			t.Errorf("%s: Degraded() = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestTaxonomyReexports pins that the engine-level sentinels are the
// same values the core wraps, so errors.Is works across the API
// boundary without importing internal packages.
func TestTaxonomyReexports(t *testing.T) {
	ferr := &FrameError{Last: &SingularPointError{Name: "x"}}
	if !errors.Is(ferr, ErrFrameFailed) || !errors.Is(ferr, ErrSingularPoint) {
		t.Error("FrameError does not match the re-exported sentinels")
	}
	var spe *SingularPointError
	if !errors.As(ferr, &spe) || spe.Name != "x" {
		t.Error("As failed to recover the wrapped *SingularPointError")
	}
	for _, sentinel := range []error{ErrSingularPoint, ErrFrameFailed, ErrStall, ErrScaleDivergence, ErrIterationBudget} {
		if sentinel == nil {
			t.Fatal("nil re-exported sentinel")
		}
	}
}

// TestWrapperListed registers its own prefix so it holds under any
// test execution order (-shuffle=on).
func TestWrapperListed(t *testing.T) {
	registerIdentity("test-listed")
	found := false
	for _, w := range Wrappers() {
		if w == "test-listed" {
			found = true
		}
	}
	if !found {
		t.Errorf("Wrappers() = %v, missing test-listed", Wrappers())
	}
}
