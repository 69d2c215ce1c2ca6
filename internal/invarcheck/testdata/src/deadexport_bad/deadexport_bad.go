// Package deadexport_bad declares code nothing but tests (or nothing at
// all) reaches, in every shape the analyzer flags: an exported function,
// an unexported one, a method that satisfies no interface, a function that
// only calls itself, and one whose single caller is a _test.go file.
package deadexport_bad

type counter struct{ n int }

func Dead() {}

func deadHelper() {}

func (c *counter) Bump() { c.n++ }

func Recurse(n int) int {
	if n == 0 {
		return 0
	}
	return Recurse(n - 1)
}

func TestOnly() int { return 1 }
