// Package lib exercises the unreached analyzer.
package lib

import "fmt"

// Thing is built through a registry.
type Thing interface{ Name() string }

type a struct{}

func (a) Name() string { return "a" }

// newA is reached through the registry's initializer alone.
func newA() Thing { return a{} }

var registry = map[string]func() Thing{"a": newA}

// Used is reached from main.
func Used() {
	fmt.Println(registry["a"]().Name())
	var s Shape = Square{}
	fmt.Println(s.Area())
	f := Square{}.Side
	fmt.Println(f())
}

// ViaAPI is reached from the public package.
func ViaAPI() int { return 1 }

// Snapshot is exported through an alias in the public package.
type Snapshot struct{ sum, n float64 }

// Mean is called by nothing in the program, but it is API through the alias.
func (s Snapshot) Mean() float64 { return s.sum / s.n }

// scale is not exported, so the alias does not make it API.
func (s Snapshot) scale() float64 { return 2 * s.sum } // want `\(unreached/internal/lib\.Snapshot\)\.scale is reached from no main`

// BenchOnly is reached from the benchmark unit alone, and so is its helper.
func BenchOnly() { benchHelper() }

func benchHelper() {}

// Unused is reached from nothing.
func Unused() { helperOfUnused() } // want `lib\.Unused is reached from no main`

// helperOfUnused is called only by a function that is itself unreached.
func helperOfUnused() {} // want `lib\.helperOfUnused is reached from no main`

// Shape's Perimeter is called nowhere.
type Shape interface {
	Area() float64
	Perimeter() float64 // want `interface method \(unreached/internal/lib\.Shape\)\.Perimeter is called and referenced nowhere`
}

// Square implements Shape and fmt.Stringer.
type Square struct{}

func (Square) Area() float64 { return 1 }

func (Square) Perimeter() float64 { return 4 } // want `\(unreached/internal/lib\.Square\)\.Perimeter is reached from no main`

// Side is reached as a method value.
func (Square) Side() float64 { return 1 }

// String is called by fmt on the program's behalf.
func (Square) String() string { return "square" }

// Circle implements Shape but is never built; CHA still reaches its Area.
type Circle struct{}

func (Circle) Area() float64 { return 3 }

func (Circle) Perimeter() float64 { return 6 } // want `\(unreached/internal/lib\.Circle\)\.Perimeter is reached from no main`

// source implements math/rand.Source, whose methods package rand calls.
type source struct{ s int64 }

func (r *source) Int63() int64 { r.s++; return r.s }

func (r *source) Seed(s int64) { r.s = s }

// Old is kept for an outside caller, and so is what it calls.
//
// Deprecated: use Used.
func Old() { oldHelper() }

func oldHelper() {}

// Waived is kept on purpose.
//
//streamlint:unreached-ok kept as the fixture's justified waiver
func Waived() {}

// Unjustified carries a waiver without a reason, which waives nothing.
//
//streamlint:unreached-ok
func Unjustified() {} // want `lib\.Unjustified is reached from no main`
