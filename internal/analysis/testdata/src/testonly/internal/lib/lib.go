// Package lib is the fixture's internal package: the declarations the
// testonly analyzer judges.
package lib

import "errors"

// Shape is satisfied by Square; main calls Area through it.
type Shape interface{ Area() int }

var _ Shape = Square{} // a compile-time assertion reaches nothing

// Square is reached from main through NewSquare.
type Square struct{ side int }

// NewSquare is called by main.
func NewSquare(side int) Square { return Square{side: side} }

// Area is reached only as Shape's method on a reached type.
func (s Square) Area() int { return s.side * s.side * scale }

// Perimeter has no caller outside tests.
func (s Square) Perimeter() int { return 4 * s.side } // want `lib\.Square\.Perimeter is reached by no main package`

const (
	scale  = 1
	unused = 2 // want `lib\.unused is reached by no main package`
)

// FromMain is called by main; it keeps registry alive.
func FromMain() int { return len(registry) }

var registry = map[string]int{}

func init() { registry["init"] = fromInit() }

func fromInit() int { return 1 }

// FromFacade is called by an exported facade function.
func FromFacade() int { return 1 }

// FromFacadeHelper is called by an unexported facade function that an
// exported one calls.
func FromFacadeHelper() int { return 1 }

// FromOrphan is called only by a facade function nothing calls.
func FromOrphan() int { return 1 } // want `lib\.FromOrphan is reached by no main package`

// TestOnly is what the analyzer exists for.
func TestOnly() int { return onlyFromTestOnly() } // want `lib\.TestOnly is reached by no main package`

func onlyFromTestOnly() int { return 1 } // want `lib\.onlyFromTestOnly is reached by no main package`

// Recorder and its method are reached by nothing.
type Recorder struct{} // want `lib\.Recorder is reached by no main package`

func (Recorder) Len() int { return 0 } // want `lib\.Recorder\.Len is reached by no main package`

// Kept is test-only on purpose.
//
//geomancy:allow testonly fixture: a test elsewhere drives the simulator through it
func Kept() int { return 1 }

// StaleKept is reached from main, so its directive suppresses nothing.
//
//geomancy:allow testonly fixture: stale, Wrap calls it
func StaleKept() int { return 1 }

type wrapped struct{ err error }

func (w wrapped) Error() string { return "wrapped" }

// Unwrap is found by package errors through an unnamed interface.
func (w wrapped) Unwrap() error { return w.err }

// Wrap is called by main.
func Wrap(err error) error {
	if StaleKept() == 0 {
		return errors.New("unreachable")
	}
	return wrapped{err}
}
