// Package deadexport_clean holds what the analyzer must leave alone: a
// function another non-test declaration references, methods reached through
// an interface (a named one, an anonymous optional-interface assertion,
// fmt.Stringer, error and the errors protocol), init, and an allowed
// bench-only export.
package deadexport_clean

import "fmt"

type shape interface{ Area() float64 }

type square struct{ side float64 }

func (s square) Area() float64 { return s.side * s.side }

func (s square) String() string { return fmt.Sprint(s.side) }

func (s *square) resize(f float64) { s.side *= f }

type lostError struct{ cause error }

func (e *lostError) Error() string { return "lost" }

func (e *lostError) Unwrap() error { return e.cause }

func (e *lostError) Is(target error) bool { return target == errLost }

var errLost = fmt.Errorf("lost")

var total = Sum(square{2})

func Sum(shapes ...shape) float64 {
	var a float64
	for _, s := range shapes {
		a += s.Area()
		if r, ok := s.(interface{ resize(float64) }); ok {
			r.resize(2)
		}
	}
	return a
}

func init() { total++ }

//repro:allow deadexport: bench
func BenchOnly() {}
