package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"slices"

	"repro/internal/bode"
	"repro/internal/circuits"
	"repro/pkg/engine"
)

// command is one run of a refgen command: its flag set, named after the
// command, and the streams it reports on. Exit codes are 2 for usage
// errors, 1 for runtime failures and 0 after -h.
type command struct {
	*flag.FlagSet
	stdout, stderr io.Writer
}

func newCommand(name string, stdout, stderr io.Writer) *command {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return &command{fs, stdout, stderr}
}

// parse parses args; when ok is false the command stops with code.
func (c *command) parse(args []string) (code int, ok bool) {
	if err := c.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0, false
		}
		return 2, false
	}
	return 0, true
}

// fail reports a runtime failure under the command's name.
func (c *command) fail(err error) int {
	fmt.Fprintln(c.stderr, c.Name()+":", err)
	return 1
}

// specFlags are the flags that mean the same thing in every command
// that takes them: the circuit selection, the transfer-function spec and
// the frequency band.
type specFlags struct {
	circuit, netlist, tf, in, inn, out string
	fMin, fMax                         float64
}

// declare registers the named shared flags on fs, each defaulting to
// its field's current value.
func (f *specFlags) declare(fs *flag.FlagSet, names ...string) {
	netlistUsage := "netlist file (required)"
	if slices.Contains(names, "circuit") {
		netlistUsage = "netlist file (alternative to -circuit)"
	}
	for _, name := range names {
		switch name {
		case "circuit":
			fs.StringVar(&f.circuit, name, f.circuit, "built-in circuit: ua741 or ota")
		case "netlist":
			fs.StringVar(&f.netlist, name, f.netlist, netlistUsage)
		case "tf":
			fs.StringVar(&f.tf, name, f.tf, "transfer function: vgain, diffgain, transz or mna")
		case "in":
			fs.StringVar(&f.in, name, f.in, "input node (positive input for diffgain)")
		case "inn":
			fs.StringVar(&f.inn, name, f.inn, "negative input node (differential input; empty = single-ended)")
		case "out":
			fs.StringVar(&f.out, name, f.out, "output node")
		case "fmin":
			fs.Float64Var(&f.fMin, name, f.fMin, "band start (Hz)")
		case "fmax":
			fs.Float64Var(&f.fMax, name, f.fMax, "band end (Hz)")
		default:
			panic("refgen: no shared flag -" + name)
		}
	}
}

func (f *specFlags) spec() engine.Spec {
	return engine.Spec{Kind: f.tf, In: f.in, Inn: f.inn, Out: f.out}
}

// load parses args, lays out points log-spaced frequencies over the band
// and loads the selected circuit, printing its stats line. A nil circuit
// means the command stops with the returned code.
func (c *command) load(args []string, f *specFlags, points *int) (*engine.Circuit, []float64, int) {
	if code, ok := c.parse(args); !ok {
		return nil, nil, code
	}
	if *points < 2 || f.fMin <= 0 || f.fMax <= f.fMin {
		fmt.Fprintf(c.stderr, "%s: need 0 < -fmin < -fmax and at least 2 frequency points\n", c.Name())
		return nil, nil, 2
	}
	ckt, code := loadCircuit(c.FlagSet, f.circuit, f.netlist)
	if ckt == nil {
		return nil, nil, code
	}
	fmt.Fprintln(c.stdout, ckt.Stats())
	return ckt, bode.LogSpace(f.fMin, f.fMax, *points), 0
}

// loadCircuit returns the circuit a command's -circuit and -netlist flags
// select: the built-in "ua741" or "ota" by name, else the netlist file.
// On failure it reports on fs's output under fs's name and returns nil
// with the exit code: 2, after the usage text, when neither flag selects
// a circuit; 1 when the netlist does not load.
func loadCircuit(fs *flag.FlagSet, builtin, netFile string) (*engine.Circuit, int) {
	switch {
	case builtin == "ua741":
		return circuits.UA741(), 0
	case builtin == "ota":
		return circuits.OTA(), 0
	case netFile != "":
		ckt, err := engine.LoadNetlist(netFile)
		if err != nil {
			fmt.Fprintf(fs.Output(), "%s: %v\n", fs.Name(), err)
			return nil, 1
		}
		return ckt, 0
	}
	fmt.Fprintf(fs.Output(), "%s: need -circuit or -netlist\n", fs.Name())
	fs.Usage()
	return nil, 2
}
