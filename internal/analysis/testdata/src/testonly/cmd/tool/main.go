// Command tool is the fixture's main package: everything it mentions is
// reached.
package main

import (
	"fmt"

	"geomancy/internal/analysis/testdata/src/testonly/internal/lib"
)

func main() {
	var s lib.Shape = lib.NewSquare(2)
	fmt.Println(s.Area(), lib.FromMain(), lib.Wrap(nil))
}
