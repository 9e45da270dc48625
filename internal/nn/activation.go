// Package nn is a from-scratch neural-network library implementing exactly
// what the Geomancy DRL engine needs: fully connected (dense) layers and the
// three recurrent layer types of Table I (SimpleRNN, LSTM, GRU), ReLU and
// linear output activations, mean-squared-error loss, plain stochastic
// gradient descent (the paper's choice) plus Adam (the paper's rejected
// alternative), mini-batch training with backpropagation-through-time, the
// paper's 60/20/20 train/validation/test split, and the mean-absolute-
// relative-error metric used throughout the paper's evaluation.
//
// Networks are built either layer by layer or via BuildModel, which
// constructs any of the 23 architectures of Table I by number.
//
// A Network is not safe for concurrent use: recurrent layers cache
// forward-pass activations for the following backward pass, and Fit
// accumulates into the layers' gradient buffers.
package nn

import (
	"fmt"
	"math"
)

// Activation identifies an elementwise activation function. All activations
// used by the Geomancy model zoo have derivatives computable from the
// activation *output*, which lets layers cache only their outputs.
type Activation int

const (
	// Linear is the identity activation, used on regression output layers.
	Linear Activation = iota
	// ReLU is max(0, x); the paper's default hidden activation, chosen
	// because predicted throughput must be non-negative.
	ReLU
	// Sigmoid is 1/(1+e^-x); used internally by LSTM and GRU gates.
	Sigmoid
	// Tanh is the hyperbolic tangent; the conventional recurrent candidate
	// activation (the zoo overrides it with ReLU per Table I).
	Tanh
)

// String returns the activation name as it appears in Table I.
func (a Activation) String() string {
	switch a {
	case Linear:
		return "Linear"
	case ReLU:
		return "ReLU"
	case Sigmoid:
		return "Sigmoid"
	case Tanh:
		return "Tanh"
	default:
		return fmt.Sprintf("Activation(%d)", int(a))
	}
}

// Apply computes the activation value for x.
func (a Activation) Apply(x float64) float64 {
	switch a {
	case Linear:
		return x
	case ReLU:
		if x < 0 {
			return 0
		}
		return x
	case Sigmoid:
		return 1 / (1 + math.Exp(-x))
	case Tanh:
		return math.Tanh(x)
	default:
		panic("nn: unknown activation " + a.String())
	}
}

// DerivFromOutput returns dActivation/dx expressed in terms of the
// activation output y = a.Apply(x). For ReLU the derivative at the kink
// (y == 0) is taken as 0.
func (a Activation) DerivFromOutput(y float64) float64 {
	switch a {
	case Linear:
		return 1
	case ReLU:
		if y > 0 {
			return 1
		}
		return 0
	case Sigmoid:
		return y * (1 - y)
	case Tanh:
		return 1 - y*y
	default:
		panic("nn: unknown activation " + a.String())
	}
}
