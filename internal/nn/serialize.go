package nn

import (
	"encoding/gob"
	"fmt"
	"io"

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

// Load reads a network previously written with Save.
func Load(r io.Reader) (*Network, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("nn: decoding network: %w", err)
	}
	// Build with a throwaway rng; weights are overwritten below.
	rng := rng.NewRand(0)
	net := NewNetwork(snap.InSize)
	net.Window = snap.Window
	for i, spec := range snap.Layers {
		units := spec.Fixed
		if units == 0 {
			units = spec.UnitsZ * snap.InSize
		}
		switch spec.Kind {
		case "Dense":
			net.AddDense(units, spec.Act, rng)
		case "LSTM":
			if i != 0 {
				return nil, fmt.Errorf("nn: snapshot has non-leading LSTM layer")
			}
			net.AddLSTM(units, spec.Act, rng)
		case "GRU":
			if i != 0 {
				return nil, fmt.Errorf("nn: snapshot has non-leading GRU layer")
			}
			net.AddGRU(units, spec.Act, rng)
		case "SimpleRNN":
			if i != 0 {
				return nil, fmt.Errorf("nn: snapshot has non-leading SimpleRNN layer")
			}
			net.AddSimpleRNN(units, spec.Act, rng)
		default:
			return nil, fmt.Errorf("nn: snapshot has unknown layer kind %q", spec.Kind)
		}
	}
	params := net.Params()
	if len(params) != len(snap.Params) {
		return nil, fmt.Errorf("nn: snapshot has %d parameter blocks, network needs %d",
			len(snap.Params), len(params))
	}
	for i, p := range params {
		if len(p.Data) != len(snap.Params[i]) {
			return nil, fmt.Errorf("nn: snapshot parameter %d has %d values, want %d",
				i, len(snap.Params[i]), len(p.Data))
		}
		copy(p.Data, snap.Params[i])
	}
	net.Desc = snap.Desc
	return net, nil
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
