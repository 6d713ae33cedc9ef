package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"stablerank/internal/geom"
)

// CSV encoding for the command-line tools. The format is one row per item:
// the first column is the item identifier, the remaining columns are the
// scoring attributes. An optional header row is skipped when hasHeader is
// true.

// ReadCSV parses a dataset from r. All rows must have the same number of
// columns (>= 2: an ID plus at least one attribute).
func ReadCSV(r io.Reader, hasHeader bool) (*Dataset, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading csv: %w", err)
	}
	if hasHeader && len(rows) > 0 {
		rows = rows[1:]
	}
	if len(rows) == 0 {
		return nil, ErrEmptyDataset
	}
	d := len(rows[0]) - 1
	if d < 1 {
		return nil, fmt.Errorf("dataset: csv rows need an id and at least one attribute, got %d columns", len(rows[0]))
	}
	ds := &Dataset{d: d, ids: make([]string, 0, len(rows)), data: make([]float64, 0, len(rows)*d)}
	attrs := make(geom.Vector, d)
	for ri, row := range rows {
		if len(row) != d+1 {
			return nil, fmt.Errorf("dataset: csv row %d has %d columns, want %d", ri+1, len(row), d+1)
		}
		for j := 0; j < d; j++ {
			v, err := strconv.ParseFloat(row[j+1], 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: csv row %d column %d: %w", ri+1, j+2, err)
			}
			attrs[j] = v
		}
		if err := ds.Add(row[0], attrs); err != nil {
			return nil, err
		}
	}
	return ds, nil
}

// WriteCSV writes the dataset to w, optionally with a header row naming the
// columns id, x1..xd.
func (ds *Dataset) WriteCSV(w io.Writer, withHeader bool) error {
	cw := csv.NewWriter(w)
	if withHeader {
		header := make([]string, ds.d+1)
		header[0] = "id"
		for j := 0; j < ds.d; j++ {
			header[j+1] = fmt.Sprintf("x%d", j+1)
		}
		if err := cw.Write(header); err != nil {
			return err
		}
	}
	row := make([]string, ds.d+1)
	for i, id := range ds.ids {
		row[0] = id
		for j, v := range ds.Attrs(i) {
			row[j+1] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
