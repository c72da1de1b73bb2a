//go:build poison

package nla

import "math"

// poison NaN-fills s under go test -tags poison, a test harness in which
// reading recycled memory before writing it yields a NaN, not an earlier
// job's exact bits. The default build's poison is empty.
func poison(s []float64) {
	for i := range s {
		s[i] = math.NaN()
	}
}
