// Quickstart: build a small mixed-cell-height design by hand, legalize
// it with the full three-stage pipeline under a cancellable context
// with per-stage progress, and print the metrics.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"mclegal"
)

func main() {
	// A 60-site x 10-row core; sites are 10x80 DBU.
	d := &mclegal.Design{
		Name: "quickstart",
		Tech: mclegal.Tech{
			SiteW: 10, RowH: 80,
			NumSites: 60, NumRows: 10,
		},
		Types: []mclegal.CellType{
			{Name: "INV", Width: 2, Height: 1},
			{Name: "DFF2", Width: 3, Height: 2}, // double height: P/G parity applies
			{Name: "MBFF3", Width: 5, Height: 3},
		},
	}
	// A cluster of cells whose GP positions overlap around (20, 4).
	add := func(ti mclegal.CellTypeID, gx, gy int) {
		d.Cells = append(d.Cells, mclegal.Cell{
			Name: fmt.Sprintf("c%d", len(d.Cells)),
			Type: ti, GX: gx, GY: gy, X: gx, Y: gy,
		})
	}
	add(2, 19, 3) // triple-height
	add(1, 20, 3) // double-height (odd row: must move for P/G alignment)
	add(1, 21, 4)
	for i := 0; i < 8; i++ {
		add(0, 19+i%3, 3+i%2)
	}

	// A deadline bounds the run (it finishes in milliseconds here, but
	// the same pattern aborts runaway production runs cleanly), and a
	// log observer prints one line per pipeline stage to stderr.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := mclegal.LegalizeContext(ctx, d, mclegal.Options{
		Workers:  1,
		Observer: mclegal.NewLogObserver(os.Stderr),
	})
	if err != nil {
		log.Fatal(err)
	}
	if v, _ := mclegal.Audit(d); len(v) > 0 {
		log.Fatalf("not legal: %v", v)
	}

	fmt.Println("legalized placement:")
	for i := range d.Cells {
		c := &d.Cells[i]
		ct := &d.Types[c.Type]
		fmt.Printf("  %-4s %-6s GP=(%2d,%2d) -> (%2d,%2d)\n",
			c.Name, ct.Name, c.GX, c.GY, c.X, c.Y)
	}
	fmt.Printf("\naverage displacement (rows): %.3f\n", res.Metrics.AvgDisp)
	fmt.Printf("maximum displacement (rows): %.3f\n", res.Metrics.MaxDisp)
	fmt.Printf("runtime: %v\n", res.Total)
	for _, tm := range res.Timings {
		fmt.Printf("  %-8s %v\n", tm.Stage, tm.Duration)
	}
}
