// Package hwlib defines the custom-hardware component library from which
// TIE custom-instruction datapaths are built.
//
// The paper (Section IV-B.1) classifies the library's primitives into ten
// categories: (1) multiplier, (2) adder/subtractor/comparator, (3)
// bit-wise logic, reduction logic and multiplexers, (4) shifter, (5)
// custom registers, plus the specialized TIE modules (6) TIE mult,
// (7) TIE mac, (8) TIE add, (9) TIE csa, and (10) table. Each structural
// macro-model variable is the active-cycle count of one category,
// weighted by a bit-width complexity function f(C): linear in width for
// most components and quadratic for multipliers.
package hwlib

import "fmt"

// Category identifies one of the paper's ten custom-hardware component
// categories.
type Category uint8

// The ten component categories (paper Table I, bottom half).
const (
	Multiplier     Category = iota // array multiplier: quadratic in width
	AddSubCmp                      // adder, subtractor, comparator
	LogicRedMux                    // bit-wise logic, reduction logic, multiplexer
	Shifter                        // barrel shifter
	CustomRegister                 // TIE state register / custom register file
	TIEMult                        // specialized TIE multiplier module
	TIEMac                         // specialized TIE multiply-accumulate module
	TIEAdd                         // specialized TIE adder module
	TIECsa                         // specialized TIE carry-save adder module
	Table                          // lookup table (ROM)

	NumCategories = 10
)

// refWidth is the reference bit-width at which a component's complexity
// f(C) equals 1, so that Table I's "unit" energies are per active cycle of
// a 32-bit-normalized instance.
const refWidth = 32

// refTableEntries is the reference entry count for Table components.
const refTableEntries = 16

var categoryNames = [NumCategories]string{
	"mult", "add/sub/cmp", "logic/red/mux", "shifter", "custom-reg",
	"tie-mult", "tie-mac", "tie-add", "tie-csa", "table",
}

// String returns the category's display name.
func (c Category) String() string {
	if int(c) >= NumCategories {
		return fmt.Sprintf("category(%d)", int(c))
	}
	return categoryNames[c]
}

// Quadratic reports whether the category's energy grows quadratically
// with bit-width (multiplier-like structures; paper Section IV-B.1).
func (c Category) Quadratic() bool {
	switch c {
	case Multiplier, TIEMult, TIEMac:
		return true
	}
	return false
}

// Component is one hardware instance inside a custom-instruction datapath.
type Component struct {
	// Name is the instance name, unique within a datapath (e.g. "gfmul0").
	Name string
	// Cat is the library category.
	Cat Category
	// Width is the bit-width of the datapath through the component
	// (for Table, the bit-width of one entry).
	Width int
	// Entries is the number of table entries; only meaningful (and
	// required) for Cat == Table.
	Entries int
}

// Validate checks the component description.
func (c Component) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("hwlib: component with empty name")
	}
	if int(c.Cat) >= NumCategories {
		return fmt.Errorf("hwlib: component %q has invalid category %d", c.Name, c.Cat)
	}
	if c.Width <= 0 || c.Width > 128 {
		return fmt.Errorf("hwlib: component %q has width %d, want 1..128", c.Name, c.Width)
	}
	if c.Cat == Table {
		if c.Entries <= 0 || c.Entries > 65536 {
			return fmt.Errorf("hwlib: table %q has %d entries, want 1..65536", c.Name, c.Entries)
		}
	} else if c.Entries != 0 {
		return fmt.Errorf("hwlib: non-table component %q has entries=%d", c.Name, c.Entries)
	}
	return nil
}

// Complexity returns f(C): the bit-width (and, for tables, entry-count)
// dependence of the component's per-cycle energy, normalized so that a
// 32-bit instance (16-entry x 32-bit for tables) has complexity 1.
// Linear categories scale as width/32; multiplier-like categories as
// (width/32)^2; tables as (entries*width)/(16*32).
func (c Component) Complexity() float64 {
	w := float64(c.Width) / refWidth
	switch {
	case c.Cat == Table:
		return float64(c.Entries) * float64(c.Width) / (refTableEntries * refWidth)
	case c.Cat.Quadratic():
		return w * w
	default:
		return w
	}
}
