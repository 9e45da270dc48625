// Package facade stands in for the module's root package: its exported
// names are roots, its unexported ones are reached only through them.
package facade

import "geomancy/internal/analysis/testdata/src/testonly/internal/lib"

// Run is exported, so what it mentions is reached.
func Run() int { return lib.FromFacade() + helper() }

func helper() int { return lib.FromFacadeHelper() }

// orphan is called by nothing, so what it mentions is not reached.
func orphan() int { return lib.FromOrphan() }
