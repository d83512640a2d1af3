package ctrace

import (
	"fmt"
	"math"
	"strings"
)

// Activity is one stretch of a glyph timeline: Glyph drawn on Lane (a
// processor or a worker) from Start to End.
type Activity struct {
	Lane       int
	Start, End float64
	Glyph      byte
}

// WriteLanes draws acts on a time axis from 0 to total as one row of
// width cells per lane, highest lane first, each row "<prefix><lane>
// |cells|".  A cell shows the glyph with the most time in it ('.' when
// idle), so sub-cell stretches do not flicker with recording order.
func WriteLanes(b *strings.Builder, prefix byte, lanes int, total float64, width int, acts []Activity) {
	acc := make([]map[byte]float64, lanes*width)
	for _, a := range acts {
		if a.Lane < 0 || a.Lane >= lanes {
			continue
		}
		c1 := min(int(a.End/total*float64(width)), width-1)
		for c := int(a.Start / total * float64(width)); c <= c1; c++ {
			lo := math.Max(a.Start, total*float64(c)/float64(width))
			hi := math.Min(a.End, total*float64(c+1)/float64(width))
			if cell := &acc[a.Lane*width+c]; hi > lo {
				if *cell == nil {
					*cell = make(map[byte]float64)
				}
				(*cell)[a.Glyph] += hi - lo
			}
		}
	}
	row := make([]byte, width)
	for l := lanes - 1; l >= 0; l-- {
		for c := range row {
			row[c] = '.'
			best := 0.0
			for g, v := range acc[l*width+c] {
				if v > best || v == best && g < row[c] {
					row[c], best = g, v
				}
			}
		}
		fmt.Fprintf(b, "%c%d |%s|\n", prefix, l, row)
	}
}
