package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"geomancy/internal/rng"
)

// snapshot is the gob wire form of a network: enough to rebuild the
// architecture (via the zoo-style layer specs) and restore every weight.
type snapshot struct {
	Desc   string
	InSize int
	Window int
	Layers []LayerSpec
	// Params holds the flattened data of every parameter matrix in
	// Params() order.
	Params [][]float64
}

// Save writes the network architecture and weights to w in gob format.
func (n *Network) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(n.snapshot())
}

func (n *Network) snapshot() snapshot {
	snap := snapshot{
		Desc:   n.String(),
		InSize: n.InSize,
		Window: n.Window,
		Layers: n.layerSpecs(),
	}
	for _, p := range n.Params() {
		data := make([]float64, len(p.Data))
		copy(data, p.Data)
		snap.Params = append(snap.Params, data)
	}
	return snap
}

// Load reads a network previously written with Save. The snapshot's
// declared shape is checked against its own parameter blocks before any
// layer is built (see check), so a blob that lies about a width — negative,
// overflowing, or larger than the weights it carries — is an error, never
// an allocation.
func Load(r io.Reader) (*Network, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("nn: decoding network: %w", err)
	}
	if err := snap.check(); err != nil {
		return nil, err
	}
	// Build with a throwaway rng; weights are overwritten below.
	rng := rng.NewRand(0)
	net := NewNetwork(snap.InSize)
	net.Window = snap.Window
	for _, spec := range snap.Layers {
		units := spec.Fixed
		if units == 0 {
			units = spec.UnitsZ * snap.InSize
		}
		switch spec.Kind { // check vetted every kind and its position
		case "Dense":
			net.AddDense(units, spec.Act, rng)
		case "LSTM":
			net.AddLSTM(units, spec.Act, rng)
		case "GRU":
			net.AddGRU(units, spec.Act, rng)
		case "SimpleRNN":
			net.AddSimpleRNN(units, spec.Act, rng)
		}
	}
	for i, p := range net.Params() {
		copy(p.Data, snap.Params[i])
	}
	net.Desc = snap.Desc
	return net, nil
}

// gates is how many (input, recurrent, bias) weight triples each recurrent
// layer kind carries; a Dense layer carries one (input, bias) pair.
var gates = map[string]int{"SimpleRNN": 1, "GRU": 3, "LSTM": 4}

// check verifies, allocating nothing, that the network the snapshot
// declares is one Load can build and needs exactly the parameter blocks the
// snapshot carries, in Params() order: every width positive and free of
// overflow, every block exactly rows × cols values long, the window in
// [1, MaxWindow]. The blocks' own lengths bound every allocation Load then
// makes by the size of the blob, and the window bounds what a recurrent
// batch assembles.
func (s *snapshot) check() error {
	if s.InSize < 1 {
		return fmt.Errorf("nn: snapshot input width %d", s.InSize)
	}
	if len(s.Layers) == 0 {
		// The first layer's weights are what back InSize.
		return fmt.Errorf("nn: snapshot has no layers")
	}
	if s.Window < 1 || s.Window > MaxWindow {
		return fmt.Errorf("nn: snapshot window %d outside [1, %d]", s.Window, MaxWindow)
	}
	next := 0 // the parameter block checked next
	block := func(rows, cols int) error {
		if next == len(s.Params) {
			return fmt.Errorf("nn: snapshot has %d parameter blocks, its layers need more", len(s.Params))
		}
		n := len(s.Params[next])
		if n%cols != 0 || n/cols != rows {
			return fmt.Errorf("nn: snapshot parameter %d has %d values, want %d×%d", next, n, rows, cols)
		}
		next++
		return nil
	}
	in := s.InSize
	for i, spec := range s.Layers {
		units := spec.Fixed
		if units == 0 {
			if spec.UnitsZ < 1 || spec.UnitsZ > math.MaxInt/s.InSize {
				return fmt.Errorf("nn: snapshot layer %d width %d×%d", i, spec.UnitsZ, s.InSize)
			}
			units = spec.UnitsZ * s.InSize
		}
		if units < 1 {
			return fmt.Errorf("nn: snapshot layer %d width %d", i, units)
		}
		if spec.Act < Linear || spec.Act > Tanh {
			return fmt.Errorf("nn: snapshot layer %d has unknown activation %d", i, int(spec.Act))
		}
		g, recurrent := gates[spec.Kind]
		switch {
		case recurrent && i != 0:
			return fmt.Errorf("nn: snapshot has non-leading %s layer", spec.Kind)
		case !recurrent && spec.Kind != "Dense":
			return fmt.Errorf("nn: snapshot has unknown layer kind %q", spec.Kind)
		case !recurrent:
			g = 1 // W and B
		}
		for ; g > 0; g-- {
			if err := block(in, units); err != nil {
				return err
			}
			if recurrent {
				if err := block(units, units); err != nil {
					return err
				}
			}
			if err := block(1, units); err != nil {
				return err
			}
		}
		in = units
	}
	if next != len(s.Params) {
		return fmt.Errorf("nn: snapshot has %d parameter blocks, network needs %d", len(s.Params), next)
	}
	return nil
}

// layerSpecs reconstructs the LayerSpec list describing this network. All
// widths are recorded as absolute (Fixed) so loading does not depend on Z
// multiples.
func (n *Network) layerSpecs() []LayerSpec {
	var specs []LayerSpec
	if n.rec != nil {
		switch l := n.rec.(type) {
		case *SimpleRNN:
			specs = append(specs, LayerSpec{Fixed: l.Out, Kind: "SimpleRNN", Act: l.Act})
		case *LSTM:
			specs = append(specs, LayerSpec{Fixed: l.Out, Kind: "LSTM", Act: l.Act})
		case *GRU:
			specs = append(specs, LayerSpec{Fixed: l.Out, Kind: "GRU", Act: l.Act})
		}
	}
	for _, d := range n.flat {
		specs = append(specs, LayerSpec{Fixed: d.Out, Kind: "Dense", Act: d.Act})
	}
	return specs
}
