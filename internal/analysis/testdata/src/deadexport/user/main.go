// Command user is a main package: its own exports are never flagged.
package main

import (
	"errors"
	"fmt"

	"lightpath/internal/analysis/testdata/src/deadexport"
)

// Exported is in package main, which deadexport skips.
func Exported() {}

func main() {
	v := deadexport.Named{}
	err := deadexport.Wrap(errors.New("x"))
	fmt.Println(deadexport.UsedElsewhere(), deadexport.Max(1, 2), v, errors.Unwrap(err), deadexport.Sorted(nil))
}
