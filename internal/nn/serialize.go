package nn

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"geomancy/internal/rng"
)

// State is a network's serializable form: enough to rebuild the
// architecture (via the zoo-style layer specs) and restore every weight.
// The architecture fields are small and travel in any encoding; the
// weights are what a checkpoint writes as a block of its own
// (WriteWeights, SetWeights), so an encoder leaves Params and Weights out.
type State struct {
	Desc   string
	InSize int
	Window int
	Layers []LayerSpec
	// Params holds a captured state's weights: the data of every parameter
	// matrix in Params() order, as the network's own slices, not copies.
	// The state is valid until the network trains again.
	Params [][]float64
	// Weights holds a read state's weights instead: the block SetWeights
	// accepted, kept as it was given, neither decoded nor copied.
	Weights []byte
}

// State captures the network's architecture and, without copying them,
// its weights.
func (n *Network) State() State {
	st := State{
		Desc:   n.String(),
		InSize: n.InSize,
		Window: n.Window,
		Layers: n.layerSpecs(),
	}
	for _, p := range n.Params() {
		st.Params = append(st.Params, p.Data)
	}
	return st
}

// WeightsLen is the length in bytes of the state's weight block.
func (s *State) WeightsLen() int {
	if s.Weights != nil {
		return len(s.Weights)
	}
	n := 0
	for _, p := range s.Params {
		n += 8 * len(p)
	}
	return n
}

// WriteWeights writes the state's weight block to w: every parameter in
// Params() order, as little-endian float64 bits. A read state's block goes
// out in one write; a captured state's parameters are encoded through
// buf, at most cap(buf) bytes (and at least one value) a write, so writing
// allocates nothing.
func (s *State) WriteWeights(w io.Writer, buf []byte) error {
	if s.Weights != nil {
		_, err := w.Write(s.Weights)
		return err
	}
	b := buf[:0]
	for _, p := range s.Params {
		for _, v := range p {
			if len(b) > 0 && len(b)+8 > cap(b) {
				if _, err := w.Write(b); err != nil {
					return err
				}
				b = b[:0]
			}
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	if len(b) == 0 {
		return nil
	}
	_, err := w.Write(b)
	return err
}

// SetWeights makes block, a weight block written by WriteWeights, the
// state's weights. The architecture is checked against the block's length
// first, allocating nothing, so a state that declares more or fewer
// weights than the block holds is an error, never an allocation sized by
// the declaration. The state keeps block itself: it must not change until
// Network has built from it.
func (s *State) SetWeights(block []byte) error {
	if err := s.checkBlock(len(block)); err != nil {
		return err
	}
	s.Params, s.Weights = nil, block
	return nil
}

// Network builds the network the state describes and fills its weights in
// from Params or the weight block. The declared shape is checked against
// the weights first (see check), so a state that lies about a width —
// negative, overflowing, or larger than the weights it carries — is an
// error, never an allocation.
func (s *State) Network() (*Network, error) {
	if err := s.check(); err != nil {
		return nil, err
	}
	// Build with a throwaway rng; weights are overwritten below.
	rng := rng.NewRand(0)
	net := NewNetwork(s.InSize)
	net.Window = s.Window
	for _, spec := range s.Layers {
		units := spec.Fixed
		if units == 0 {
			units = spec.UnitsZ * s.InSize
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
	block := s.Weights
	for i, p := range net.Params() {
		if s.Weights == nil {
			copy(p.Data, s.Params[i])
			continue
		}
		for j := range p.Data {
			p.Data[j] = math.Float64frombits(binary.LittleEndian.Uint64(block[8*j:]))
		}
		block = block[8*len(p.Data):]
	}
	net.Desc = s.Desc
	return net, nil
}

// gates is how many (input, recurrent, bias) weight triples each recurrent
// layer kind carries; a Dense layer carries one (input, bias) pair.
var gates = map[string]int{"SimpleRNN": 1, "GRU": 3, "LSTM": 4}

// check verifies, allocating nothing, that the network the state declares
// needs exactly the weights the state carries: its weight block's length,
// or with no block the parameter blocks in Params() order. The weights'
// own length bounds every allocation Network then makes by the size of
// the state.
func (s *State) check() error {
	if s.Weights != nil {
		return s.checkBlock(len(s.Weights))
	}
	next := 0 // the parameter block checked next
	err := s.blocks(func(rows, cols int) error {
		if next == len(s.Params) {
			return fmt.Errorf("nn: state has %d parameter blocks, its layers need more", len(s.Params))
		}
		n := len(s.Params[next])
		if n%cols != 0 || n/cols != rows {
			return fmt.Errorf("nn: state parameter %d has %d values, want %d×%d", next, n, rows, cols)
		}
		next++
		return nil
	})
	if err == nil && next != len(s.Params) {
		err = fmt.Errorf("nn: state has %d parameter blocks, network needs %d", len(s.Params), next)
	}
	return err
}

// checkBlock verifies, allocating nothing, that the network the state
// declares needs exactly the values a weight block of size bytes holds.
func (s *State) checkBlock(size int) error {
	if size%8 != 0 {
		return fmt.Errorf("nn: weight block of %d bytes is not whole float64 values", size)
	}
	values := size / 8
	left := values
	err := s.blocks(func(rows, cols int) error {
		if cols > left || rows > left/cols {
			return fmt.Errorf("nn: weight block holds %d values, the layers need more", values)
		}
		left -= rows * cols
		return nil
	})
	if err == nil && left != 0 {
		err = fmt.Errorf("nn: weight block holds %d values, %d more than the layers need", values, left)
	}
	return err
}

// blocks verifies, allocating nothing, that the declared network is one
// Network can build — every width positive and free of overflow, every
// kind known and a recurrent layer only in front, the window in
// [1, MaxWindow] — and calls block with the rows and columns of each
// parameter matrix it needs, in Params() order, stopping at the first
// error. The window bounds what a recurrent batch assembles.
func (s *State) blocks(block func(rows, cols int) error) error {
	if s.InSize < 1 {
		return fmt.Errorf("nn: state input width %d", s.InSize)
	}
	if len(s.Layers) == 0 {
		// The first layer's weights are what back InSize.
		return fmt.Errorf("nn: state has no layers")
	}
	if s.Window < 1 || s.Window > MaxWindow {
		return fmt.Errorf("nn: state window %d outside [1, %d]", s.Window, MaxWindow)
	}
	in := s.InSize
	for i, spec := range s.Layers {
		units := spec.Fixed
		if units == 0 {
			if spec.UnitsZ < 1 || spec.UnitsZ > math.MaxInt/s.InSize {
				return fmt.Errorf("nn: state layer %d width %d×%d", i, spec.UnitsZ, s.InSize)
			}
			units = spec.UnitsZ * s.InSize
		}
		if units < 1 {
			return fmt.Errorf("nn: state layer %d width %d", i, units)
		}
		if spec.Act < Linear || spec.Act > Tanh {
			return fmt.Errorf("nn: state layer %d has unknown activation %d", i, int(spec.Act))
		}
		g, recurrent := gates[spec.Kind]
		switch {
		case recurrent && i != 0:
			return fmt.Errorf("nn: state has non-leading %s layer", spec.Kind)
		case !recurrent && spec.Kind != "Dense":
			return fmt.Errorf("nn: state has unknown layer kind %q", spec.Kind)
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
