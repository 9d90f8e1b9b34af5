package core

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/circuits"
	"repro/internal/interp"
	"repro/internal/nodal"
	"repro/internal/xmath"
)

// waitNoLeaks asserts the goroutine count settles back to the baseline
// taken before the test body ran. Worker goroutines park on channel
// receives and exit asynchronously after cancellation, so poll briefly
// instead of sampling once.
func waitNoLeaks(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutine leak: %d at start, %d after settle window", baseline, runtime.NumGoroutine())
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestGenerateContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	want := ua741Profile()
	res, err := GenerateContext(ctx, interp.FromPoly("pre-canceled", want, 49), Config{InitFScale: 1e8, InitGScale: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("no partial Result on pre-canceled context")
	}
	if len(res.Iterations) != 0 {
		t.Errorf("pre-canceled context recorded %d iterations, want 0", len(res.Iterations))
	}
	for i, c := range res.Coeffs {
		if c.Status != Unknown {
			t.Errorf("s^%d: status %v on pre-canceled context, want Unknown", i, c.Status)
		}
	}
}

// TestCancelMidGeneration cancels from the Observer after the second
// completed iteration and checks the paper's partial-result contract in
// both the serial and the parallel evaluation paths: the error is
// context.Canceled, the iterations completed before the cancel are
// retained (and nothing after), the coefficient vector is genuinely
// partial, and no worker goroutines outlive the call.
func TestCancelMidGeneration(t *testing.T) {
	for _, tc := range []struct {
		name        string
		parallelism int
	}{
		{"serial", 1},
		{"parallel", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			want := ua741Profile()
			ev := interp.FromPoly("mid-cancel-"+tc.name, want, 49)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()

			const stopAfter = 2
			completed := 0
			res, err := GenerateContext(ctx, ev, Config{
				InitFScale:  1e8,
				InitGScale:  1,
				Parallelism: tc.parallelism,
				Observer: func(Iteration) {
					completed++
					if completed == stopAfter {
						cancel()
					}
				},
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if res == nil {
				t.Fatal("no partial Result on mid-generation cancel")
			}
			if got := len(res.Iterations); got != stopAfter {
				t.Errorf("partial Result has %d iterations, want exactly %d", got, stopAfter)
			}
			valid, unknown := 0, 0
			for _, c := range res.Coeffs {
				switch c.Status {
				case Valid:
					valid++
				case Unknown:
					unknown++
				}
			}
			if valid == 0 {
				t.Error("mid-generation cancel kept no resolved coefficients")
			}
			if unknown == 0 {
				t.Error("nothing left unresolved after cancel — profile finished too fast to exercise cancellation")
			}
			waitNoLeaks(t, baseline)
		})
	}
}

func TestGenerateContextDeadline(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	// The deadline is already unreachable; wait for expiry so the error
	// is deterministic.
	<-ctx.Done()
	want := ua741Profile()
	res, err := GenerateContext(ctx, interp.FromPoly("deadline", want, 49), Config{InitFScale: 1e8, InitGScale: 1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if res == nil {
		t.Fatal("no partial Result on deadline expiry")
	}
	waitNoLeaks(t, baseline)
}

// TestGenerateContextBackgroundParity pins that the context-aware entry
// point is a pure superset: with a background context it must reproduce
// Generate bit for bit.
func TestGenerateContextBackgroundParity(t *testing.T) {
	want := ua741Profile()
	cfg := Config{InitFScale: 1e8, InitGScale: 1}
	a, err := Generate(interp.FromPoly("parity", want, 49), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateContext(context.Background(), interp.FromPoly("parity", want, 49), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Coeffs) != len(b.Coeffs) || len(a.Iterations) != len(b.Iterations) {
		t.Fatalf("shape mismatch: %d/%d coeffs, %d/%d iterations",
			len(a.Coeffs), len(b.Coeffs), len(a.Iterations), len(b.Iterations))
	}
	for i := range a.Coeffs {
		ca, cb := a.Coeffs[i], b.Coeffs[i]
		if ca.Status != cb.Status {
			t.Errorf("s^%d: status %v vs %v", i, ca.Status, cb.Status)
			continue
		}
		if ca.Status == Valid && ca.Value.Cmp(cb.Value) != 0 {
			t.Errorf("s^%d: value %v vs %v (not bit-identical)", i, ca.Value, cb.Value)
		}
	}
}

// TestGenerateTransferFunctionContextCanceled checks the circuit-level
// entry point: cancellation during the numerator pass still returns the
// partial numerator Result (and no denominator), wrapped so errors.Is
// sees context.Canceled.
func TestGenerateTransferFunctionContextCanceled(t *testing.T) {
	baseline := runtime.NumGoroutine()
	c := circuit.New("rc")
	c.AddG("g1", "in", "out", 1e-4).AddC("c1", "out", "0", 2e-12)
	sys, err := nodal.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := sys.VoltageGain(c, "in", "out")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	num, den, err := GenerateTransferFunctionContext(ctx, c, tf, Config{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if num == nil {
		t.Fatal("no partial numerator Result on cancellation")
	}
	if den != nil {
		t.Error("denominator Result produced although the numerator pass was canceled")
	}
	waitNoLeaks(t, baseline)
}

// ua741DiffGain formulates the µA741 differential gain: a transfer
// function without a joint cache, whose two passes overlap unless
// Parallelism is 1.
func ua741DiffGain(t *testing.T) (*circuit.Circuit, *interp.TransferFunction) {
	t.Helper()
	c := circuits.UA741()
	sys, err := nodal.Build(c)
	if err != nil {
		t.Fatal(err)
	}
	inp, inn, out := circuits.UA741Inputs()
	tf, err := sys.DifferentialVoltageGain(c, inp, inn, out)
	if err != nil {
		t.Fatal(err)
	}
	if tf.EvalBothChunk != nil {
		t.Fatal("diffgain grew a joint evaluation; the overlapped path needs a transfer function without one")
	}
	return c, tf
}

// TestOverlappedPassesCancel pins the cancellation contract on the
// overlapped path (diffgain, Parallelism 2): it returns the triples the
// sequential run returns, and no goroutine outlives the call.
func TestOverlappedPassesCancel(t *testing.T) {
	c, tf := ua741DiffGain(t)
	full, _, err := GenerateTransferFunction(c, tf, Config{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("pre-canceled", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		num, den, err := GenerateTransferFunctionContext(ctx, c, tf, Config{Parallelism: 2})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if num == nil || len(num.Iterations) != 0 {
			t.Errorf("numerator = %v, want an empty partial Result", num)
		}
		if den != nil {
			t.Error("denominator Result returned although the numerator pass was canceled")
		}
		waitNoLeaks(t, baseline)
	})

	t.Run("canceled at the first denominator iteration", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		// The denominator pass runs ahead of the Observer, which sees
		// its iterations only once the numerator is done. Hold its
		// second frame until the Observer has canceled, so that frame
		// is the one the cancellation stops.
		gate := make(chan struct{})
		gated := *tf
		batch := tf.Den.EvalBatch
		var calls atomic.Int32
		gated.Den.EvalBatch = func(ctx context.Context, pts []complex128, f, g float64, workers int) []xmath.XComplex {
			if calls.Add(1) > 1 {
				select {
				case <-gate:
				case <-time.After(10 * time.Second):
				}
			}
			return batch(ctx, pts, f, g, workers)
		}
		seen, denSeen := 0, 0
		num, den, err := GenerateTransferFunctionContext(ctx, c, &gated, Config{
			Parallelism: 2,
			Observer: func(Iteration) {
				seen++
				if seen > len(full.Iterations) {
					denSeen++
					if denSeen == 1 {
						cancel()
						close(gate)
					}
				}
			},
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if num == nil || len(num.Iterations) != len(full.Iterations) {
			t.Fatalf("numerator not complete: %v", num)
		}
		if den == nil || len(den.Iterations) != 1 {
			t.Fatalf("denominator = %v, want a partial Result with exactly 1 iteration", den)
		}
		if denSeen != 1 {
			t.Errorf("Observer saw %d denominator iterations, want 1", denSeen)
		}
		waitNoLeaks(t, baseline)
	})

	t.Run("numerator over its solve budget", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		seen, denIterations := 0, 0
		num, den, err := GenerateTransferFunctionContext(context.Background(), c, tf, Config{
			Parallelism: 2,
			MaxSolves:   full.TotalSolves - 1,
			Observer: func(Iteration) {
				seen++
				if seen > len(full.Iterations) {
					denIterations++
				}
			},
		})
		if !errors.Is(err, ErrIterationBudget) {
			t.Fatalf("err = %v, want ErrIterationBudget", err)
		}
		if num == nil || num.TotalSolves >= full.TotalSolves {
			t.Errorf("numerator = %v, want a partial Result under the budget", num)
		}
		if den != nil {
			t.Error("denominator Result returned although the numerator pass failed")
		}
		if denIterations != 0 {
			t.Errorf("Observer saw %d iterations past the failed numerator's", denIterations)
		}
		waitNoLeaks(t, baseline)
	})
}
