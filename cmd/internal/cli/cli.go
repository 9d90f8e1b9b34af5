// Package cli holds the circuit selection the analysis commands share:
// a built-in circuit by name (-circuit) or a netlist file (-netlist).
package cli

import (
	"flag"
	"fmt"

	"repro/internal/circuits"
	"repro/pkg/engine"
)

// LoadCircuit returns the circuit a command's -circuit and -netlist flags
// select: the built-in "ua741" or "ota" by name, else the netlist file.
// On failure it reports on fs's output under fs's name and returns nil
// with the exit code: 2, after the usage text, when neither flag selects
// a circuit; 1 when the netlist does not load.
func LoadCircuit(fs *flag.FlagSet, builtin, netFile string) (*engine.Circuit, int) {
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
