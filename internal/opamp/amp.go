package opamp

import (
	"fmt"
	"pipesyn/internal/device"

	"pipesyn/internal/netlist"
	"pipesyn/internal/pdk"
)

// Amp abstracts a synthesizable amplifier cell: anything that can render
// itself into a netlist, expose its design variables as a flat vector, and
// report its closed-form designer equations can ride the sizing engine —
// the property that made NeoCircuit-style cell synthesis general, and that
// lets this project's optimizer drive both the two-stage Miller OTA and
// the telescopic cascode with the same code.
type Amp interface {
	// Build appends the amplifier to a circuit using the shared port
	// convention (PortInP, PortInN, PortOut, PortVDD), prefixing internal
	// nodes and element names.
	Build(c *netlist.Circuit, p *pdk.Process, prefix string)
	// AppendVector appends the design variables, flattened, to dst.
	AppendVector(dst []float64) []float64
	// WithVector returns a new Amp of the same topology holding the
	// given variables, each clamped to its manufacturable range in p.
	WithVector(v []float64, p *pdk.Process) (Amp, error)
	// Analyze evaluates the designer's closed-form equations driving cl
	// farads of load.
	Analyze(p *pdk.Process, cl float64) Equations
	// SwingWindow extracts the output range with every device saturated
	// from a DC operating point (mos keyed by prefixed element name).
	SwingWindow(mos map[string]device.OP, prefix string, vdd float64) (lo, hi float64)
	// Topology names the cell class.
	Topology() Topology
}

// Topology enumerates the supported amplifier cells.
type Topology int

const (
	Miller Topology = iota
	Telescopic
)

func (t Topology) String() string {
	switch t {
	case Miller:
		return "two-stage-miller"
	case Telescopic:
		return "telescopic-cascode"
	}
	return "?"
}

// Initial returns the designer-equation starting sizing of a topology.
func Initial(t Topology, p *pdk.Process, spec BlockSpec) (Amp, error) {
	switch t {
	case Miller:
		return InitialSizing(p, spec), nil
	case Telescopic:
		return InitialTelescopic(p, spec), nil
	}
	return nil, fmt.Errorf("opamp: unknown topology %d", t)
}

// MillerSizing implements Amp.

// Build renders the two-stage OTA.
func (s MillerSizing) Build(c *netlist.Circuit, p *pdk.Process, prefix string) {
	Build(c, p, s, prefix)
}

// WithVector rebuilds the clamped sizing from optimizer variables.
func (s MillerSizing) WithVector(v []float64, p *pdk.Process) (Amp, error) {
	m, err := FromVector(v)
	if err != nil {
		return nil, err
	}
	return m.Clamp(p), nil
}

// SwingWindow reads the two output devices: the NMOS sink m6 sets the
// floor, the PMOS common-source m5 sets the ceiling.
func (s MillerSizing) SwingWindow(mos map[string]device.OP, prefix string, vdd float64) (float64, float64) {
	return mos[prefix+"m6"].VOV, vdd - mos[prefix+"m5"].VOV
}

// Analyze evaluates the Miller designer equations.
func (s MillerSizing) Analyze(p *pdk.Process, cl float64) Equations {
	return Analyze(p, s, cl)
}

// Topology identifies the cell class.
func (s MillerSizing) Topology() Topology { return Miller }

// TelescopicSizing implements Amp.

// Build renders the telescopic OTA.
func (s TelescopicSizing) Build(c *netlist.Circuit, p *pdk.Process, prefix string) {
	BuildTelescopic(c, p, s, prefix)
}

// WithVector rebuilds the clamped sizing from optimizer variables.
func (s TelescopicSizing) WithVector(v []float64, p *pdk.Process) (Amp, error) {
	t, err := TeleFromVector(v)
	if err != nil {
		return nil, err
	}
	return t.Clamp(p), nil
}

// SwingWindow reads the telescopic output stack: the floor is the cascode
// source level plus its overdrive (four stacked devices), the ceiling one
// PMOS overdrive below the rail.
func (s TelescopicSizing) SwingWindow(mos map[string]device.OP, prefix string, vdd float64) (float64, float64) {
	m3 := mos[prefix+"m3"]
	// The cascode's source sits VGS3 below the gate bias; the output can
	// fall to that level plus the cascode overdrive.
	lo := s.VBN - m3.VGS + m3.VOV
	hi := vdd - mos[prefix+"m6"].VOV
	return lo, hi
}

// Analyze evaluates the telescopic designer equations.
func (s TelescopicSizing) Analyze(p *pdk.Process, cl float64) Equations {
	return AnalyzeTelescopic(p, s, cl)
}

// Topology identifies the cell class.
func (s TelescopicSizing) Topology() Topology { return Telescopic }

// Interface conformance.
var (
	_ Amp = MillerSizing{}
	_ Amp = TelescopicSizing{}
)
